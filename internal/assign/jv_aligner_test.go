package assign_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/matrix"
)

// TestSolveJVMatchesReferenceOnAligners pins SolveJV and SolveHungarian to
// their reference formulations on the matrices the sparse pipeline's exact
// fallback actually solves: NSD's factored and REGAL's embedding similarity,
// materialized from small powerlaw-cluster instances. Degree-driven features
// make these tie-heavy. At n=520 the materialization crosses the parallel
// gate, so each matrix is also built with GOMAXPROCS 1 and 4 and must come
// out bitwise the same (run with -race to check the row blocks).
func TestSolveJVMatchesReferenceOnAligners(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{150, 520} {
		p := algotest.Pair(t, n, 0.02, int64(n))
		fac, err := nsd.New().FactorsCtx(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := regal.New().EmbeddingsCtx(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatal(err)
		}
		for name, similarity := range map[string]func() *matrix.Dense{
			"NSD": fac.Similarity, "REGAL": emb.Similarity,
		} {
			name := fmt.Sprintf("%s/n%d", name, n)
			sim := similarityAtProcs(t, name, similarity)
			sameMapping(t, name+"/JV", assign.SolveJV(sim), assign.SolveJVReference(sim))
			sameMapping(t, name+"/Hungarian", assign.SolveHungarian(sim), assign.SolveHungarianReference(sim))
		}
	}
}

// similarityAtProcs materializes with GOMAXPROCS 1 and 4, fails unless the
// two matrices are bitwise equal, and returns one of them.
func similarityAtProcs(t *testing.T, name string, similarity func() *matrix.Dense) *matrix.Dense {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := similarity()
	runtime.GOMAXPROCS(4)
	pooled := similarity()
	for i := range serial.Data {
		if math.Float64bits(serial.Data[i]) != math.Float64bits(pooled.Data[i]) {
			t.Fatalf("%s: entry %d is %v with GOMAXPROCS 1, %v with 4", name, i, serial.Data[i], pooled.Data[i])
		}
	}
	return pooled
}

func sameMapping(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows mapped, reference maps %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d -> %d, reference -> %d", name, i, got[i], want[i])
		}
	}
}
