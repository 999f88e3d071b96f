package assign

import (
	"errors"
	"fmt"
	"math"

	"graphalign/internal/matrix"
	"graphalign/internal/parallel"
)

// FactorEmbedding is a similarity matrix in low-rank outer-product form:
//
//	S = Σ_t Weights[t] · Us[t] Vs[t]ᵀ
//
// Aligners whose similarity is an explicit factor product — NSD's iterated
// degree-vector outer products, LREA's factored power iteration — expose
// this via algo.FactorAligner so the sparse pipeline can score candidates
// against the factors directly and never materialize the Rows x Cols
// product. Unlike Embedding, the two sides are asymmetric: Us rows live in
// source space, Vs rows in target space, and similarity is the weighted
// inner product rather than a function of distance.
//
// The terms are ordered: Similarity and TopKFactor accumulate them in index
// order with the exact floating-point schedule of matrix.AddOuterScaled, so
// the factored and densified paths agree bitwise.
type FactorEmbedding struct {
	// Us[t] has len Rows, Vs[t] len Cols.
	Us, Vs [][]float64
	// Weights scales each term; nil means every term has weight 1.
	Weights []float64
}

// Rows returns the source-side dimension (0 for an empty factor list).
func (f *FactorEmbedding) Rows() int {
	if len(f.Us) == 0 {
		return 0
	}
	return len(f.Us[0])
}

// Cols returns the target-side dimension (0 for an empty factor list).
func (f *FactorEmbedding) Cols() int {
	if len(f.Vs) == 0 {
		return 0
	}
	return len(f.Vs[0])
}

// Rank returns the number of rank-one terms.
func (f *FactorEmbedding) Rank() int { return len(f.Us) }

// weight returns term t's scale.
func (f *FactorEmbedding) weight(t int) float64 {
	if f.Weights == nil {
		return 1
	}
	return f.Weights[t]
}

// Similarity materializes the dense similarity matrix from the factors —
// the fallback of the sparse pipeline when the candidate graph is
// unmatchable, and bitwise what the aligner's own dense path computes (the
// same accumulation as AddOuterScaled calls in term order). Rows are
// blocked across the worker pool and each is accumulated by factorScoreRow,
// term-ascending, so the result is bitwise identical for any worker count.
func (f *FactorEmbedding) Similarity() *matrix.Dense {
	sim := matrix.NewDense(f.Rows(), f.Cols())
	parallel.Blocks(materializeWorkers(sim.Rows*sim.Cols*f.Rank()), sim.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			factorScoreRow(f, i, sim.Row(i))
		}
	})
	return sim
}

// Bytes estimates the retained size of the factor lists, for cache
// accounting.
func (f *FactorEmbedding) Bytes() int64 {
	return int64(8 * (len(f.Us)*(f.Rows()+f.Cols()) + len(f.Weights)))
}

// Clone returns a deep copy, so cached factor bundles can hand out private
// instances.
func (f *FactorEmbedding) Clone() *FactorEmbedding {
	c := &FactorEmbedding{
		Us: make([][]float64, len(f.Us)),
		Vs: make([][]float64, len(f.Vs)),
	}
	for t := range f.Us {
		c.Us[t] = append([]float64(nil), f.Us[t]...)
		c.Vs[t] = append([]float64(nil), f.Vs[t]...)
	}
	if f.Weights != nil {
		c.Weights = append([]float64(nil), f.Weights...)
	}
	return c
}

// ErrStarvedRow is the sentinel under *StarvedRowError: a candidate row was
// left empty by factor-space pruning, so the sparse exact solve cannot
// proceed and silently falling back to dense JV would mask the defect.
var ErrStarvedRow = errors.New("assign: starved candidate row")

// StarvedRowError reports the first source row whose candidate list came up
// empty after pruning (every factored score non-finite). It unwraps to
// ErrStarvedRow for errors.Is checks.
type StarvedRowError struct {
	Row int
}

func (e *StarvedRowError) Error() string {
	return fmt.Sprintf("assign: row %d has no candidates after factor-space pruning", e.Row)
}

func (e *StarvedRowError) Unwrap() error { return ErrStarvedRow }

// TopKFactor reduces a factored similarity to its per-row top-k candidate
// set without materializing the Rows x Cols product: each worker block
// accumulates one row of scores at a time into a reusable Cols-length buffer
// — term-ascending, bitwise the row AddOuterScaled would produce — and
// bounded-heap selects from it exactly like TopKDense, so the candidate set
// equals TopKDense(f.Similarity(), k, ·) entry for entry on finite scores.
// O(Rows · Cols · Rank) work but O(Cols) extra memory per worker.
//
// NaN scores (a factor pair can multiply to NaN under degenerate weights)
// are pruned rather than selected: rows losing candidates to pruning are
// recorded in Candidates.Len, and a fully-starved row surfaces as a typed
// *StarvedRowError from SolveSparse instead of a silent dense fallback.
func TopKFactor(f *FactorEmbedding, k, workers int) *Candidates {
	n, m := f.Rows(), f.Cols()
	if k <= 0 || k > m {
		k = m
	}
	c := &Candidates{Rows: n, Cols: m, K: k,
		Col: make([]int, n*k), Val: make([]float64, n*k)}
	if n == 0 || m == 0 {
		return c
	}
	rowLen := make([]int, n)
	scoreRows := func(lo, hi int) {
		buf := make([]float64, m)
		heap := make([]pair, 0, k)
		for i := lo; i < hi; i++ {
			factorScoreRow(f, i, buf)
			heap, rowLen[i] = factorSelectRow(c, i, buf, heap)
		}
	}
	if n*m >= candidateBudget && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, n, scoreRows)
	} else {
		scoreRows(0, n)
	}
	for _, l := range rowLen {
		if l < k {
			c.Len = rowLen
			break
		}
	}
	return c
}

// factorScoreRow accumulates row i's factored scores into buf (len Cols),
// term-ascending — bitwise the row AddOuterScaled would produce. The scaled
// left coefficient is formed once and a zero skips the term, which also skips
// its (potentially NaN-producing) products. Each buf[j] is an independent
// accumulation chain, so factorScoreOne reproduces any single entry bitwise.
func factorScoreRow(f *FactorEmbedding, i int, buf []float64) {
	for j := range buf {
		buf[j] = 0
	}
	for t := range f.Us {
		w := f.weight(t) * f.Us[t][i]
		if w == 0 {
			continue
		}
		vs := f.Vs[t]
		for j, vv := range vs {
			buf[j] += w * vv
		}
	}
}

// factorScoreOne computes the single score (i, j) with factorScoreRow's exact
// accumulation schedule, for incremental-update probes.
func factorScoreOne(f *FactorEmbedding, i, j int) float64 {
	var s float64
	for t := range f.Us {
		w := f.weight(t) * f.Us[t][i]
		if w == 0 {
			continue
		}
		s += w * f.Vs[t][j]
	}
	return s
}

// factorSelectRow bounded-heap selects buf's finite top-K into c's row i
// (padding short rows with Col -1 / Val 0) and returns the reusable heap
// storage plus the kept count.
func factorSelectRow(c *Candidates, i int, buf []float64, heap []pair) ([]pair, int) {
	k := c.K
	heap = selectTopKFinite(heap[:0], buf, k)
	kept := len(heap)
	// Heap-sort into (v desc, j asc), as TopKDense does.
	cols, vals := c.Col[i*k:(i+1)*k], c.Val[i*k:(i+1)*k]
	for l := len(heap) - 1; l > 0; l-- {
		heap[0], heap[l] = heap[l], heap[0]
		topKSiftDownN(heap, 0, l)
	}
	for idx, p := range heap {
		cols[idx], vals[idx] = p.j, p.v
	}
	for idx := kept; idx < k; idx++ {
		cols[idx], vals[idx] = -1, 0
	}
	return heap, kept
}

// selectTopKFinite is selectTopK skipping NaN scores (factor-space pruning);
// on NaN-free rows it selects exactly what selectTopK does.
func selectTopKFinite(h []pair, row []float64, k int) []pair {
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		if len(h) < k {
			h = append(h, pair{0, j, v})
			topKSiftUp(h, len(h)-1)
			continue
		}
		if v <= h[0].v {
			continue
		}
		h[0] = pair{0, j, v}
		topKSiftDown(h, 0)
	}
	return h
}
