// Package algo defines the interface every alignment algorithm implements
// and the shared helpers for turning a node-similarity matrix into a final
// alignment. Concrete algorithms live in the subpackages (isorank, graal,
// nsd, lrea, regal, gwl, sgwl, cone, grasp).
//
// The paper factors every method into a similarity notion plus an
// assignment step (Section 3); this package mirrors that factoring so the
// experiment framework can pair any similarity with any assignment
// algorithm, exactly as the study's Section 6.2 does.
package algo

import (
	"context"
	"fmt"
	"time"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// Aligner is a graph alignment algorithm reduced to its similarity notion.
type Aligner interface {
	// Name returns the algorithm's short name as used in the paper.
	Name() string
	// Similarity computes the |V_src| x |V_dst| matrix of node-to-node
	// similarity scores (higher means more likely to correspond).
	Similarity(src, dst *graph.Graph) (*matrix.Dense, error)
	// DefaultAssignment is the extraction method proposed by the original
	// authors (Table 1's "Assign" column).
	DefaultAssignment() assign.Method
}

// ContextAligner is optionally implemented by aligners whose similarity
// computation observes cooperative cancellation. SimilarityCtx must behave
// exactly like Similarity when ctx is never cancelled (same results from the
// same inputs), and return ctx.Err() — possibly wrapped — promptly once ctx
// is done. All ten built-in algorithms implement it; the Similarity helper
// dispatches through it when available.
type ContextAligner interface {
	SimilarityCtx(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error)
}

// Similarity computes a's similarity matrix under ctx: aligners that
// implement ContextAligner get the context threaded into their iteration
// loops; plain aligners run to completion and the context is checked before
// the call. With context.Background() this is exactly a.Similarity(src, dst).
func Similarity(ctx context.Context, a Aligner, src, dst *graph.Graph) (*matrix.Dense, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ca, ok := a.(ContextAligner); ok {
		return ca.SimilarityCtx(ctx, src, dst)
	}
	return a.Similarity(src, dst)
}

// EmbeddingAligner is optionally implemented by aligners whose similarity
// matrix is a monotone non-increasing function of the distance between
// per-node embedding rows (REGAL, CONE, GRASP). EmbeddingsCtx returns that
// factored form — the embeddings plus the distance-to-similarity map —
// without materializing the dense |V_src| x |V_dst| matrix, so the sparse
// assignment pipeline can run k-NN candidate search directly over the
// embeddings. The contract: Embedding.Similarity() must equal what
// SimilarityCtx returns under the same ctx (same values, same shape), and
// the returned matrices are private to the caller.
type EmbeddingAligner interface {
	EmbeddingsCtx(ctx context.Context, src, dst *graph.Graph) (*assign.Embedding, error)
}

// FactorAligner is optionally implemented by aligners whose similarity
// matrix is an explicit low-rank sum of outer products (NSD's iterated
// degree-vector series, LREA's factored power iteration). FactorsCtx returns
// that factored form without materializing the dense |V_src| x |V_dst|
// product, so the sparse assignment pipeline can score per-row top-k
// candidates straight off the factors. The contract is bitwise:
// FactorEmbedding.Similarity() must equal what SimilarityCtx returns under
// the same ctx (the same AddOuterScaled accumulation in the same term
// order), and the returned factors are private to the caller.
type FactorAligner interface {
	FactorsCtx(ctx context.Context, src, dst *graph.Graph) (*assign.FactorEmbedding, error)
}

// IncrementalEmbedder is an optional refinement of EmbeddingAligner for
// evolving-target sessions (internal/incremental): RefreshEmbeddingsCtx
// re-embeds (src, dst) after target-side edits, reusing whatever internal
// state the previous call on the same pair lineage left behind, and
// restricting fresh target-side work to the nodes scope allows (nil = all).
// The first call — or any call whose state no longer matches the inputs
// (different source graph, changed shape) — computes from scratch and is
// equivalent to EmbeddingsCtx. When the target's fingerprint is unchanged
// since the previous call the result must be bitwise identical to the
// previous one (the noop-replay contract). Outside those cases the result
// may carry bounded staleness: rows whose inputs moved less than the
// implementation's refresh tolerance keep their previous vectors until the
// accumulated movement crosses it.
//
// Implementations keep per-instance state, so an instance used for refresh
// must not be shared across sessions; the returned embedding is private to
// the caller.
type IncrementalEmbedder interface {
	EmbeddingAligner
	RefreshEmbeddingsCtx(ctx context.Context, src, dst *graph.Graph, scope []bool) (*assign.Embedding, error)
}

// IncrementalFactorer is IncrementalEmbedder for FactorAligners: a
// per-instance stateful refresh of the factor bundle after target-side
// edits, with the same lineage, noop-bitwise, and bounded-staleness
// contract. Factor refreshes have no per-node scope (rank-one terms are
// global), so the dirty scope does not appear in the signature.
type IncrementalFactorer interface {
	FactorAligner
	RefreshFactorsCtx(ctx context.Context, src, dst *graph.Graph) (*assign.FactorEmbedding, error)
}

// Instrumented is optionally implemented by aligners that can report the
// inner phases of Similarity (eigendecompositions, optimal-transport
// recursions, power-iteration convergence) through an observability span.
// The experiment runner calls SetSpan with the enclosing run's span before
// invoking Similarity; with tracing disabled the span is nil, which is a
// valid value — obsv.Span methods no-op on nil, so implementations store
// and use it unconditionally.
type Instrumented interface {
	SetSpan(*obsv.Span)
}

// Cacheable is optionally implemented by aligners that can draw shared
// per-graph artifacts (degree vectors, Laplacians, spectral decompositions,
// embeddings) from the experiment-wide artifact cache instead of recomputing
// them. SetCache is called by the experiment runner before Similarity; a nil
// cache is valid and means "compute everything locally", so implementations
// store it unconditionally — every cache helper is nil-safe. Implementations
// must keep cached and uncached runs byte-identical: only pure functions of
// the cache key may be memoized, and shared values must never be mutated.
type Cacheable interface {
	SetCache(*cache.Cache)
}

// ApplyCache hands the artifact cache to a, if a supports one. Nil-safe in c.
func ApplyCache(a Aligner, c *cache.Cache) {
	if ca, ok := a.(Cacheable); ok {
		ca.SetCache(c)
	}
}

// Request configures one alignment stage (Run). The zero value is a dense
// run with the aligner's own assignment method, untraced.
type Request struct {
	// Method is the assignment method; empty selects a.DefaultAssignment().
	Method assign.Method
	// TopK, when positive, routes the assignment through the sparse
	// candidate pipeline: the similarity is reduced to per-row top-k
	// candidates — via k-NN over raw embeddings for EmbeddingAligners, via
	// factor-space scoring for FactorAligners (neither materializes the
	// dense matrix), via bounded-heap row selection otherwise — and solved
	// by the sparse variant of Method (exact methods map to the ε-scaling
	// auction, with a dense-JV fallback when the candidate graph leaves
	// rows unmatchable; see assign.SolveSparse). Zero keeps the dense
	// solvers.
	TopK int
	// Workers bounds the sparse pipeline's parallel fan-out (candidate
	// generation and auction bidding); 0 means one per CPU. Results are
	// identical for any value.
	Workers int
	// Span, when non-nil, is the enclosing run span: the "similarity" and
	// "assign" stages become phases under it.
	Span *obsv.Span
	// Registry receives the assignment-stage series (lap_solve_size and,
	// on sparse runs, assign_candidates_per_row, assign_auction_rounds,
	// assign_fallbacks_total); nil disables them.
	Registry *obsv.Registry
}

// Result is what one alignment stage produced.
type Result struct {
	// Mapping[u] is the dst node aligned to src node u (-1 = unmatched).
	Mapping []int
	// SimTime is the similarity computation alone — the paper's runtime
	// figures exclude assignment. On sparse runs over a factored form it
	// times producing the embeddings or factors.
	SimTime time.Duration
	// AssignTime is the assignment step, candidate generation included.
	AssignTime time.Duration
	// Stats reports what the sparse pipeline did (zero on dense runs).
	Stats assign.SparseStats
}

// Run is the alignment stage every entry point drives: the similarity
// stage followed by the assignment step, the factoring the paper reduces
// every method to (Section 3). Nearest-neighbor extractions are restricted
// to one-to-one outputs, as the paper does for comparability. ctx is
// threaded into ContextAligner similarity loops and checked once the
// similarity stage returns; the assignment solvers run to completion (they
// are polynomial in the already-computed similarity, never the hanging
// stage).
func Run(ctx context.Context, a Aligner, src, dst *graph.Graph, req Request) (Result, error) {
	var res Result
	if src.N() > dst.N() {
		return res, fmt.Errorf("algo: source graph larger than target (%d > %d)", src.N(), dst.N())
	}
	method := req.Method
	if method == "" {
		method = a.DefaultAssignment()
	}

	// Similarity stage. With the sparse pipeline on and an aligner that can
	// expose embeddings or explicit low-rank factors, the dense matrix is
	// never materialized: the stage produces the factored form instead.
	sparse := req.TopK > 0
	ea, useEmb := a.(EmbeddingAligner)
	fa, useFac := a.(FactorAligner)
	useEmb = sparse && useEmb
	useFac = sparse && !useEmb && useFac
	var (
		sim *matrix.Dense
		emb *assign.Embedding
		fac *assign.FactorEmbedding
		err error
	)
	sp := req.Span.Phase("similarity")
	t0 := time.Now()
	switch {
	case useEmb:
		sp.Set("factored", true)
		emb, err = ea.EmbeddingsCtx(ctx, src, dst)
	case useFac:
		sp.Set("factored", true)
		fac, err = fa.FactorsCtx(ctx, src, dst)
	default:
		sim, err = Similarity(ctx, a, src, dst)
	}
	res.SimTime = time.Since(t0)
	sp.End()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return res, fmt.Errorf("algo: %s similarity: %w", a.Name(), err)
	}

	sp = req.Span.Phase("assign")
	sp.Set("method", string(method))
	sp.Set("size", src.N())
	req.Registry.Histogram("lap_solve_size", obsv.SizeBuckets()).Observe(float64(src.N()))
	t1 := time.Now()
	if sparse {
		sp.Set("topk", req.TopK)
		var cands *assign.Candidates
		var dense func() *matrix.Dense
		switch {
		case useEmb:
			cands = assign.TopKEmbedding(emb, req.TopK, req.Workers)
			dense = emb.Similarity
		case useFac:
			cands = assign.TopKFactor(fac, req.TopK, req.Workers)
			dense = fac.Similarity
		default:
			cands = assign.TopKDense(sim, req.TopK, req.Workers)
			dense = func() *matrix.Dense { return sim }
		}
		res.Mapping, res.Stats, err = assign.SolveSparse(method, cands, dense, req.Workers)
		if err == nil {
			req.Registry.Histogram("assign_candidates_per_row", obsv.SizeBuckets()).Observe(float64(res.Stats.CandidatesPerRow))
			req.Registry.Histogram("assign_auction_rounds", obsv.SizeBuckets()).Observe(float64(res.Stats.Rounds))
			sp.Set("auction_rounds", res.Stats.Rounds)
			if res.Stats.FellBack {
				req.Registry.Counter("assign_fallbacks_total").Add(1)
				sp.Set("fallback", true)
			}
		}
	} else {
		res.Mapping, err = assign.Solve(method, sim)
		if err == nil && method == assign.NearestNeighbor {
			res.Mapping = assign.EnforceOneToOne(sim, res.Mapping)
		}
	}
	res.AssignTime = time.Since(t1)
	sp.End()
	if err != nil {
		res.Mapping = nil
		return res, fmt.Errorf("algo: %s assignment: %w", a.Name(), err)
	}
	return res, nil
}

// DegreePrior computes the paper's degree-based prior similarity
// (Section 6.1): sim(u, v) = 1 - |deg(u) - deg(v)| / max(deg(u), deg(v)).
// Isolated pairs (both degree zero) get similarity 1.
func DegreePrior(src, dst *graph.Graph) *matrix.Dense {
	e := matrix.NewDense(src.N(), dst.N())
	dsrc := src.Degrees()
	ddst := dst.Degrees()
	for i, du := range dsrc {
		row := e.Row(i)
		for j, dv := range ddst {
			maxD := du
			if dv > maxD {
				maxD = dv
			}
			if maxD == 0 {
				row[j] = 1
				continue
			}
			diff := du - dv
			if diff < 0 {
				diff = -diff
			}
			row[j] = 1 - float64(diff)/float64(maxD)
		}
	}
	return e
}

// DegreePriorCached is DegreePrior drawn through the artifact cache, keyed by
// the (src, dst) pair fingerprint. The returned matrix is shared across the
// algorithms of a cell: treat it as READ-ONLY (clone before mutating, as
// IsoRank does before normalizing). A nil cache computes directly.
func DegreePriorCached(c *cache.Cache, src, dst *graph.Graph) *matrix.Dense {
	v, _ := c.GetOrCompute(context.Background(), cache.PairKey(src, dst)+"/degprior", func() (any, int64, error) {
		m := DegreePrior(src, dst)
		return m, cache.DenseBytes(m), nil
	})
	return v.(*matrix.Dense)
}

// NormalizeSim scales a similarity matrix so entries sum to one; useful for
// iterations that must preserve mass. No-op on an all-zero matrix.
func NormalizeSim(s *matrix.Dense) {
	sum := s.Sum()
	if sum != 0 {
		s.Scale(1 / sum)
	}
}
