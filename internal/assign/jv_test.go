package assign

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphalign/internal/matrix"
)

// jvOracleCases are the matrices SolveJV and SolveHungarian must solve
// exactly as their reference formulations do: uniform random square and
// rectangular, integer-valued tie-heavy, duplicated rows, low-rank, and the
// starved fixture whose top-1 candidates all collide.
func jvOracleCases() map[string]*matrix.Dense {
	cases := map[string]*matrix.Dense{
		"starved": matrix.DenseFromRows([][]float64{
			{1, 0, 0, 0},
			{0.9, 0, 0, 0},
			{0.8, 0, 0, 0},
		}),
		"single": matrix.DenseFromRows([][]float64{{0.5}}),
		"constant": func() *matrix.Dense {
			m := matrix.NewDense(12, 15)
			m.Fill(1)
			return m
		}(),
	}
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {17, 17}, {64, 64}, {200, 200}, {3, 7}, {20, 45}, {90, 130}} {
		n, m := shape[0], shape[1]
		for seed := int64(1); seed <= 3; seed++ {
			cases[fmt.Sprintf("uniform/%dx%d/s%d", n, m, seed)] = randomSim(n, m, seed)
			cases[fmt.Sprintf("ints/%dx%d/s%d", n, m, seed)] = intSim(n, m, 4, seed)
			cases[fmt.Sprintf("duprows/%dx%d/s%d", n, m, seed)] = dupRowSim(n, m, 1+n/5, seed)
		}
	}
	for _, n := range []int{40, 150, 300} {
		cases[fmt.Sprintf("lowrank/%d", n)] = lowRankSim(n, int64(n))
		cases[fmt.Sprintf("quantized/%d", n)] = quantizedFactor(n, n+n/10, 3, int64(n)).Similarity()
	}
	return cases
}

// intSim draws every entry from {0, …, levels-1}, so reduced costs tie
// constantly.
func intSim(rows, cols, levels int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(levels))
	}
	return m
}

// dupRowSim copies each row from one of distinct random rows, so whole rows
// are equivalent and compete for the same columns.
func dupRowSim(rows, cols, distinct int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	pool := randomSim(distinct, cols, seed+1000)
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		copy(m.Row(i), pool.Row(rng.Intn(distinct)))
	}
	return m
}

// lowRankSim materializes a rank-3 degree-series factor similarity, the
// shape of NSD's: term t pairs deg^(t/2) on both sides, with power-law
// degrees. Nodes of equal degree give identical rows (and columns), which
// leaves many rows free after JV's reduction phases and sends them through
// the shortest-augmenting-path phase.
func lowRankSim(n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	degree := func() float64 { return math.Floor(math.Pow(1-rng.Float64(), -1/1.5)) }
	srcDeg, dstDeg := make([]float64, n), make([]float64, n)
	for i := range srcDeg {
		srcDeg[i], dstDeg[i] = degree(), degree()
	}
	f := &FactorEmbedding{}
	for t := 0; t < 3; t++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i] = math.Pow(srcDeg[i], float64(t)/2) * a
			v[i] = math.Pow(dstDeg[i], float64(t)/2) * b
		}
		f.Us = append(f.Us, u)
		f.Vs = append(f.Vs, v)
	}
	return f.Similarity()
}

func TestSolveJVMatchesReference(t *testing.T) {
	for name, sim := range jvOracleCases() {
		got, want := SolveJV(sim), solveJVReference(sim)
		checkOneToOne(t, name, got, sim.Cols)
		assertSameMapping(t, name, got, want)
	}
}

func TestSolveHungarianMatchesReference(t *testing.T) {
	for name, sim := range jvOracleCases() {
		got, want := SolveHungarian(sim), solveHungarianReference(sim)
		checkOneToOne(t, name, got, sim.Cols)
		assertSameMapping(t, name, got, want)
	}
}

// TestSimilarityWorkerCountIdentity: both materializers are row-blocked over
// the worker pool and must return bitwise the serial formulation — the
// PairwiseSqDist-then-map and term-by-term AddOuterScaled loops — with
// GOMAXPROCS 1 and N. Sizes cross matrix.ParallelFlops so the pool engages;
// run under -race to check the blocks stay disjoint.
func TestSimilarityWorkerCountIdentity(t *testing.T) {
	e := testEmbedding(600, 620, 12, 7)
	f := testFactor(610, 600, 48, 7)
	wantE := matrix.PairwiseSqDist(e.Src, e.Dst)
	for i, d2 := range wantE.Data {
		wantE.Data[i] = e.SimFromDist2(d2)
	}
	wantF := matrix.NewDense(f.Rows(), f.Cols())
	for t := range f.Us {
		wantF.AddOuterScaled(f.Us[t], f.Vs[t], f.weight(t))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		assertSameDense(t, fmt.Sprintf("Embedding/procs%d", procs), e.Similarity(), wantE)
		assertSameDense(t, fmt.Sprintf("FactorEmbedding/procs%d", procs), f.Similarity(), wantF)
	}
}

// assertSameDense fails unless got and want have the same shape and
// bitwise-equal entries.
func assertSameDense(t *testing.T, name string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}
