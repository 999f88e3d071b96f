package cache

import (
	"context"
	"math"
	"reflect"
	"testing"

	"graphalign/internal/graph"
	"graphalign/internal/linalg"
)

// twoComponentGraph builds two disjoint cliques of sizes a and b.
func twoComponentGraph(a, b int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < a; i++ {
		for j := i + 1; j < a; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			edges = append(edges, graph.Edge{U: a + i, V: a + j})
		}
	}
	return graph.MustNew(a+b, edges)
}

func TestComponentKeysSurviveEditsElsewhere(t *testing.T) {
	c := New(0)
	g := twoComponentGraph(5, 4)
	v1 := Components(c, g)
	if v1.Count != 2 {
		t.Fatalf("Count = %d, want 2", v1.Count)
	}
	// Edit inside component 1 only (remove one clique edge).
	g2, err := graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditRemove, U: 5, V: 6}})
	if err != nil {
		t.Fatal(err)
	}
	v2 := Components(c, g2)
	if v2.Keys[0] != v1.Keys[0] {
		t.Errorf("untouched component key changed: %q -> %q", v1.Keys[0], v2.Keys[0])
	}
	if v2.Keys[1] == v1.Keys[1] {
		t.Errorf("edited component key did not change: %q", v1.Keys[1])
	}
}

func TestDegreesDeltaMatchesAndReuses(t *testing.T) {
	c := New(0)
	g := twoComponentGraph(6, 5)
	if got := DegreesDelta(c, g); !reflect.DeepEqual(got, g.Degrees()) {
		t.Fatalf("DegreesDelta = %v, want %v", got, g.Degrees())
	}
	// Edit the second component; the first component's degree artifact must
	// be a cache hit (probed via Has on its key).
	g2, err := graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditRemove, U: 6, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	view := Components(c, g2)
	if !c.Has(view.Keys[0] + "/degrees") {
		t.Error("untouched component's degrees not reusable after edit elsewhere")
	}
	if c.Has(view.Keys[1] + "/degrees") {
		t.Error("edited component's degrees unexpectedly cached already")
	}
	if got := DegreesDelta(c, g2); !reflect.DeepEqual(got, g2.Degrees()) {
		t.Fatalf("post-edit DegreesDelta = %v, want %v", got, g2.Degrees())
	}
	// Nil cache degrades to a direct computation.
	if got := DegreesDelta(nil, g); !reflect.DeepEqual(got, g.Degrees()) {
		t.Fatal("nil-cache DegreesDelta differs from g.Degrees()")
	}
}

// The merged per-component eigendecomposition must carry the same spectrum as
// the monolithic one and return genuine eigenpairs of the full normalized
// Laplacian.
func TestLaplacianEigsDeltaMatchesMonolithic(t *testing.T) {
	c := New(0)
	g := twoComponentGraph(7, 6)
	k := 5
	ctx := context.Background()
	dvals, dvecs, err := LaplacianEigsDelta(ctx, c, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	mvals, _, err := LaplacianEigs(ctx, New(0), g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dvals) != k {
		t.Fatalf("got %d eigenvalues, want %d", len(dvals), k)
	}
	for i := range dvals {
		if math.Abs(dvals[i]-mvals[i]) > 1e-8 {
			t.Errorf("eigenvalue %d: delta %v vs monolithic %v", i, dvals[i], mvals[i])
		}
		if i > 0 && dvals[i] < dvals[i-1] {
			t.Errorf("eigenvalues not ascending at %d", i)
		}
	}
	// Residual check: L v = λ v for each merged pair.
	lap := graph.NormalizedLaplacian(g)
	op := linalg.CSROp(lap)
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for col := 0; col < k; col++ {
		for i := 0; i < n; i++ {
			x[i] = dvecs.At(i, col)
		}
		op.Apply(y, x)
		for i := 0; i < n; i++ {
			if r := math.Abs(y[i] - dvals[col]*x[i]); r > 1e-6 {
				t.Fatalf("eigenpair %d residual %v at node %d", col, r, i)
			}
		}
	}
}

// A connected graph must share the monolithic key, keeping delta and plain
// paths bitwise-identical there.
func TestLaplacianEigsDeltaConnectedDelegates(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}})
	c := New(0)
	ctx := context.Background()
	dv, dvec, err := LaplacianEigsDelta(ctx, c, g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	mv, mvec, err := LaplacianEigs(ctx, c, g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dv, mv) || !reflect.DeepEqual(dvec.Data, mvec.Data) {
		t.Fatal("connected-graph delta path is not the monolithic artifact")
	}
}

func TestHas(t *testing.T) {
	c := New(0)
	if c.Has("nope") {
		t.Error("empty cache claims a key")
	}
	if _, err := c.GetOrCompute(context.Background(), "k", func() (any, int64, error) { return 1, 8, nil }); err != nil {
		t.Fatal(err)
	}
	if !c.Has("k") {
		t.Error("finished entry not reported by Has")
	}
	var nilCache *Cache
	if nilCache.Has("k") {
		t.Error("nil cache claims a key")
	}
}
