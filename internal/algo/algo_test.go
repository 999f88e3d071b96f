package algo

import (
	"context"
	"errors"
	"math"
	"testing"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// stubAligner returns a fixed similarity matrix.
type stubAligner struct {
	sim *matrix.Dense
	err error
}

func (s stubAligner) Name() string { return "stub" }
func (s stubAligner) Similarity(src, dst *graph.Graph) (*matrix.Dense, error) {
	return s.sim, s.err
}
func (s stubAligner) DefaultAssignment() assign.Method { return assign.SortGreedy }

// align runs the alignment stage with method m.
func align(a Aligner, src, dst *graph.Graph, m assign.Method) ([]int, error) {
	res, err := Run(context.Background(), a, src, dst, Request{Method: m})
	return res.Mapping, err
}

func line(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.MustNew(n, edges)
}

func TestAlignUsesSimilarity(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 1},
	})
	g := line(3)
	mapping, err := align(stubAligner{sim: sim}, g, g, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 2}
	for i := range want {
		if mapping[i] != want[i] {
			t.Fatalf("mapping = %v, want %v", mapping, want)
		}
	}
}

func TestAlignRejectsLargerSource(t *testing.T) {
	if _, err := align(stubAligner{}, line(4), line(3), assign.SortGreedy); err == nil {
		t.Error("larger source accepted")
	}
}

func TestAlignPropagatesErrors(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := align(stubAligner{err: wantErr}, line(3), line(3), assign.SortGreedy)
	if err == nil || !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestAlignNNIsOneToOne(t *testing.T) {
	// Similarity that sends every row to column 0 under raw NN.
	sim := matrix.DenseFromRows([][]float64{
		{1, 0.1, 0.1},
		{0.9, 0.2, 0.1},
		{0.8, 0.1, 0.3},
	})
	g := line(3)
	mapping, err := align(stubAligner{sim: sim}, g, g, assign.NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range mapping {
		if v < 0 || seen[v] {
			t.Fatalf("NN alignment not one-to-one: %v", mapping)
		}
		seen[v] = true
	}
}

// TestAlignDefault: an empty Request.Method selects the aligner's own
// assignment method.
func TestAlignDefault(t *testing.T) {
	sim := matrix.DenseFromRows([][]float64{{1, 0}, {0, 1}})
	g := line(2)
	mapping, err := align(stubAligner{sim: sim}, g, g, "")
	if err != nil {
		t.Fatal(err)
	}
	if mapping[0] != 0 || mapping[1] != 1 {
		t.Errorf("mapping = %v", mapping)
	}
}

func TestDegreePrior(t *testing.T) {
	star := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	p := DegreePrior(star, star)
	// Center-to-center: identical degree -> 1.
	if p.At(0, 0) != 1 {
		t.Errorf("prior center = %v", p.At(0, 0))
	}
	// Center (deg 3) to leaf (deg 1): 1 - 2/3 = 1/3.
	if math.Abs(p.At(0, 1)-1.0/3) > 1e-12 {
		t.Errorf("prior center-leaf = %v", p.At(0, 1))
	}
	// Isolated pair similarity 1.
	iso := graph.MustNew(1, nil)
	if DegreePrior(iso, iso).At(0, 0) != 1 {
		t.Error("isolated pair prior should be 1")
	}
}

func TestNormalizeSim(t *testing.T) {
	m := matrix.DenseFromRows([][]float64{{2, 2}, {2, 2}})
	NormalizeSim(m)
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Errorf("sum = %v", m.Sum())
	}
	z := matrix.NewDense(2, 2)
	NormalizeSim(z) // must not divide by zero
	if z.Sum() != 0 {
		t.Error("zero matrix changed")
	}
}

// embStub is a stubAligner exposing its similarity in factored form: rows
// of identical 2-d embeddings, similarity = -squared distance.
type embStub struct{ stubAligner }

func (embStub) EmbeddingsCtx(ctx context.Context, src, dst *graph.Graph) (*assign.Embedding, error) {
	rows := [][]float64{{0, 0}, {1, 0}, {0, 3}}
	return &assign.Embedding{
		Src:          matrix.DenseFromRows(rows),
		Dst:          matrix.DenseFromRows(rows),
		SimFromDist2: func(d2 float64) float64 { return -d2 },
	}, nil
}

// eventSink retains every event for assertions.
type eventSink struct{ events []obsv.Event }

func (s *eventSink) Event(e obsv.Event) { s.events = append(s.events, e) }

// TestRunSparseObservability pins what a sparse run reports: the factored
// similarity stage, the assign phase's size/topk/auction_rounds attributes,
// the sparse registry series, and the solver's stats.
func TestRunSparseObservability(t *testing.T) {
	sink := &eventSink{}
	reg := obsv.NewRegistry()
	run := obsv.New(sink).SetRegistry(reg).StartRun("stub", nil)
	g := line(3)
	res, err := Run(context.Background(), embStub{}, g, g, Request{
		Method: assign.JonkerVolgenant, TopK: 2, Workers: 1, Span: run, Registry: reg,
	})
	run.End()
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range res.Mapping {
		if u != v {
			t.Fatalf("mapping = %v, want identity", res.Mapping)
		}
	}
	if res.Stats.CandidatesPerRow != 2 {
		t.Errorf("Stats.CandidatesPerRow = %d, want 2", res.Stats.CandidatesPerRow)
	}
	phases := map[string]map[string]any{}
	for _, e := range sink.events {
		if e.Type == "phase" {
			phases[e.Name] = e.Fields
		}
	}
	if phases["similarity"]["factored"] != true {
		t.Errorf("similarity phase fields = %v, want factored=true", phases["similarity"])
	}
	as := phases["assign"]
	if as["method"] != string(assign.JonkerVolgenant) || as["size"] != 3 || as["topk"] != 2 {
		t.Errorf("assign phase fields = %v, want method/size=3/topk=2", as)
	}
	if _, ok := as["auction_rounds"]; !ok {
		t.Errorf("assign phase fields = %v, missing auction_rounds", as)
	}
	for _, name := range []string{"lap_solve_size", "assign_candidates_per_row", "assign_auction_rounds"} {
		if n := reg.Histogram(name, obsv.SizeBuckets()).Snapshot().Count; n != 1 {
			t.Errorf("%s count = %d, want 1", name, n)
		}
	}
}
