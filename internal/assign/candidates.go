package assign

import (
	"math"

	"graphalign/internal/kdtree"
	"graphalign/internal/matrix"
	"graphalign/internal/parallel"
)

// Candidates is the sparse per-row candidate set the sparse assignment
// pipeline operates on: for each source row, its K highest-similarity target
// columns, stored row-major and sorted within each row by descending value
// with ties broken by ascending column. K is uniform across rows (capped at
// Cols), which keeps the layout a flat pair of arrays the auction's inner
// loop can stream through.
//
// A candidate set is immutable once built and is a pure function of its
// inputs, so it can be shared across goroutines freely.
type Candidates struct {
	Rows, Cols int
	// K is the number of candidates per row (min(requested k, Cols)).
	K int
	// Col[i*K+c] and Val[i*K+c] are the column and similarity of row i's
	// c-th best candidate.
	Col []int
	Val []float64
	// Len, when non-nil, gives each row's actual candidate count (<= K):
	// producers that prune candidates (TopKFactor dropping NaN scores) leave
	// short rows padded with Col -1 / Val 0, and Row trims the padding. Nil
	// means every row holds exactly K candidates.
	Len []int
}

// Row returns row i's candidate columns and values (views into shared
// storage; treat as read-only).
func (c *Candidates) Row(i int) ([]int, []float64) {
	lo, hi := i*c.K, (i+1)*c.K
	if c.Len != nil {
		hi = lo + c.Len[i]
	}
	return c.Col[lo:hi], c.Val[lo:hi]
}

// candidateBudget is the approximate per-call work (rows * cols) above which
// candidate generation fans rows out across the worker pool. Each row is
// selected by exactly one goroutine, so results are identical for any worker
// count.
const candidateBudget = 1 << 18

// TopKDense reduces a dense similarity matrix to its per-row top-k candidate
// set via bounded-heap partial selection: O(m log k) per row instead of the
// O(m log m) of a full row sort. Rows are fanned out across at most workers
// goroutines (0 = one per CPU, 1 = sequential); the output is identical for
// any worker count. k <= 0 or k >= Cols keeps every column (the candidate
// set is then dense, just reordered).
func TopKDense(sim *matrix.Dense, k, workers int) *Candidates {
	n, m := sim.Rows, sim.Cols
	if k <= 0 || k > m {
		k = m
	}
	c := &Candidates{Rows: n, Cols: m, K: k,
		Col: make([]int, n*k), Val: make([]float64, n*k)}
	selectRows := func(lo, hi int) {
		heap := make([]pair, 0, k)
		for i := lo; i < hi; i++ {
			heap = selectTopK(heap[:0], sim.Row(i), k)
			// Heap-sort the selection in place into descending (v, asc j)
			// order: repeatedly move the weakest candidate to the tail.
			cols, vals := c.Row(i)
			for l := len(heap) - 1; l > 0; l-- {
				heap[0], heap[l] = heap[l], heap[0]
				topKSiftDownN(heap, 0, l)
			}
			for idx, p := range heap {
				cols[idx], vals[idx] = p.j, p.v
			}
		}
	}
	if n*m >= candidateBudget && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, n, selectRows)
	} else {
		selectRows(0, n)
	}
	return c
}

// selectTopK pushes row's k strongest (value, column) entries onto h (reused
// storage, passed in emptied) using the bounded min-heap ordered by
// (v asc, j desc): the root is the weakest kept candidate, and among equal
// values the larger column is evicted first, so ties keep the smaller column.
func selectTopK(h []pair, row []float64, k int) []pair {
	for j, v := range row {
		if len(h) < k {
			h = append(h, pair{0, j, v})
			topKSiftUp(h, len(h)-1)
			continue
		}
		// Columns arrive in increasing j, so on equal value the incumbent
		// (smaller j) wins and the newcomer is skipped.
		if v <= h[0].v {
			continue
		}
		h[0] = pair{0, j, v}
		topKSiftDown(h, 0)
	}
	return h
}

// Embedding is a similarity matrix in factored form: per-node embedding rows
// for the source and target graphs plus the monotone non-increasing map from
// squared Euclidean row distance to similarity score. Aligners whose
// similarity is a pure function of embedding distance (REGAL, CONE, GRASP)
// expose this via algo.EmbeddingAligner so the sparse pipeline can run k-NN
// candidate search directly over the embeddings and never materialize the
// dense n x m similarity matrix.
type Embedding struct {
	Src, Dst *matrix.Dense
	// SimFromDist2 converts a squared Euclidean distance between an Src row
	// and a Dst row into the aligner's similarity score. It must be monotone
	// non-increasing so that nearest-in-embedding equals best-similarity.
	SimFromDist2 func(d2 float64) float64
}

// Similarity materializes the full dense similarity matrix from the
// embedding — the fallback of the sparse pipeline when the candidate graph
// is unmatchable, and bitwise what the aligner's own dense path computes
// (same row-major squared-distance accumulation order). Rows are blocked
// across the worker pool, each computed start to finish — distances by
// matrix.SqDistInto, then mapped through SimFromDist2 — by one goroutine, so
// the result is bitwise identical for any worker count. SimFromDist2 must
// therefore be safe for concurrent use.
func (e *Embedding) Similarity() *matrix.Dense {
	sim := matrix.NewDense(e.Src.Rows, e.Dst.Rows)
	parallel.Blocks(materializeWorkers(sim.Rows*sim.Cols*e.Src.Cols), sim.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := sim.Row(i)
			matrix.SqDistInto(row, e.Src.Row(i), e.Dst)
			for j, d2 := range row {
				row[j] = e.SimFromDist2(d2)
			}
		}
	})
	return sim
}

// materializeWorkers is the worker count for densifying a similarity that
// costs about flops multiply-adds: the whole pool from matrix.ParallelFlops
// on, the gate of the matrix kernels (so Embedding.Similarity fans out
// exactly when PairwiseSqDist does), inline below it.
func materializeWorkers(flops int) int {
	if flops >= matrix.ParallelFlops {
		return 0
	}
	return 1
}

// bruteForceDim is the embedding width at and above which TopKEmbedding
// abandons the k-d tree for a row-blocked brute-force distance scan. On the
// unstructured embeddings the aligners produce, tree traversal visits nearly
// every node from d≈8 upward (the usual curse-of-dimensionality folklore
// says d ≳ 32, but measured visit counts cross ~85% of nodes already at
// d=8 — see DESIGN.md §12), at which point the tree only adds traversal
// overhead over the flat scan.
const bruteForceDim = 8

// TopKEmbedding builds the per-row candidate set straight from the factored
// embedding, never materializing the dense Rows x Cols similarity matrix.
// Low-dimensional embeddings (d < bruteForceDim) run k-nearest-neighbor
// queries against a k-d tree over the target rows with per-worker reusable
// scratch; wider ones use a brute-force distance scan fused with bounded
// selection (see topKEmbeddingBrute) — O(m d) per row with no per-query
// allocation either way. Both paths fan rows out
// across at most workers goroutines; results are identical for any worker
// count and across the two paths. Within a row, candidates are ordered by
// ascending distance with ties broken by lower column id, which is
// descending similarity order because SimFromDist2 is monotone.
func TopKEmbedding(e *Embedding, k, workers int) *Candidates {
	n, m := e.Src.Rows, e.Dst.Rows
	if k <= 0 || k > m {
		k = m
	}
	c := &Candidates{Rows: n, Cols: m, K: k,
		Col: make([]int, n*k), Val: make([]float64, n*k)}
	if n == 0 || m == 0 {
		return c
	}
	var queryRows func(lo, hi int)
	if e.Src.Cols >= bruteForceDim {
		queryRows = func(lo, hi int) { topKEmbeddingBrute(e, c, lo, hi) }
	} else {
		points := make([][]float64, m)
		for j := 0; j < m; j++ {
			points[j] = e.Dst.Row(j)
		}
		tree := kdtree.Build(points)
		queryRows = func(lo, hi int) { topKEmbeddingTree(tree, e, c, lo, hi) }
	}
	if n*k >= 1<<12 && parallel.Workers(workers) > 1 {
		parallel.Blocks(workers, n, queryRows)
	} else {
		queryRows(0, n)
	}
	return c
}

// topKEmbeddingTree fills rows [lo, hi) by k-NN queries against the shared
// k-d tree over the target rows, one reusable Scratch per worker block.
func topKEmbeddingTree(tree *kdtree.Tree, e *Embedding, c *Candidates, lo, hi int) {
	s := kdtree.NewScratch()
	for i := lo; i < hi; i++ {
		ids, dists := tree.NearestKInto(e.Src.Row(i), c.K, s)
		cols, vals := c.Row(i)
		for idx, id := range ids {
			cols[idx] = id
			vals[idx] = e.SimFromDist2(dists[idx])
		}
	}
}

// topKEmbeddingBrute fills rows [lo, hi) by a flat distance scan fused with
// bounded selection: target rows are processed eight at a time with
// independent accumulator chains — each distance accumulates
// dimension-ascending in its own chain, bitwise the PairwiseSqDist /
// matrix.SqDistInto values — and every distance is compared against the
// current k-th-nearest bound while still in a register, so distances are
// never stored to a buffer or re-scanned. (A half-dimension partial-distance
// cut was tried and measured slower at these dims: the data-dependent
// branches and serialized completion loops cost more than the skipped FLOPs.)
// The selection is a sorted insertion array (cheaper than a heap at
// candidate-set sizes, and already in output order). Ids are visited
// ascending, so on equal distance the incumbent (smaller id) wins — the
// tree path's (distance asc, id asc) contract. Bound tests are written
// !(x >= bound) so non-finite distances take the same insert path a
// buffered scan would.
func topKEmbeddingBrute(e *Embedding, c *Candidates, lo, hi int) {
	m, k := c.Cols, c.K
	d := e.Dst.Cols
	if e.Src.Cols != d {
		panic("assign: embedding side dims differ")
	}
	if d == 8 {
		topKEmbeddingBrute8(e, c, lo, hi)
		return
	}
	data := e.Dst.Data
	heap := make([]nnPair, 0, k)
	for i := lo; i < hi; i++ {
		q := e.Src.Row(i)
		heap = heap[:0]
		bound := math.Inf(1)
		j := 0
		nq := len(q)
		for ; j+8 <= m; j += 8 {
			base := j * d
			// Re-slicing each row to len(q) lets the compiler prove t in
			// bounds for every load below (len(q) == d by the guard above).
			r0 := data[base : base+d : base+d][:nq]
			r1 := data[base+d : base+2*d : base+2*d][:nq]
			r2 := data[base+2*d : base+3*d : base+3*d][:nq]
			r3 := data[base+3*d : base+4*d : base+4*d][:nq]
			r4 := data[base+4*d : base+5*d : base+5*d][:nq]
			r5 := data[base+5*d : base+6*d : base+6*d][:nq]
			r6 := data[base+6*d : base+7*d : base+7*d][:nq]
			r7 := data[base+7*d : base+8*d : base+8*d][:nq]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for t, v := range q {
				d0 := v - r0[t]
				s0 += d0 * d0
				d1 := v - r1[t]
				s1 += d1 * d1
				d2 := v - r2[t]
				s2 += d2 * d2
				d3 := v - r3[t]
				s3 += d3 * d3
				d4 := v - r4[t]
				s4 += d4 * d4
				d5 := v - r5[t]
				s5 += d5 * d5
				d6 := v - r6[t]
				s6 += d6 * d6
				d7 := v - r7[t]
				s7 += d7 * d7
			}
			if len(heap) < k || !(s0 >= bound) {
				heap, bound = nnInsert(heap, k, s0, j)
			}
			if len(heap) < k || !(s1 >= bound) {
				heap, bound = nnInsert(heap, k, s1, j+1)
			}
			if len(heap) < k || !(s2 >= bound) {
				heap, bound = nnInsert(heap, k, s2, j+2)
			}
			if len(heap) < k || !(s3 >= bound) {
				heap, bound = nnInsert(heap, k, s3, j+3)
			}
			if len(heap) < k || !(s4 >= bound) {
				heap, bound = nnInsert(heap, k, s4, j+4)
			}
			if len(heap) < k || !(s5 >= bound) {
				heap, bound = nnInsert(heap, k, s5, j+5)
			}
			if len(heap) < k || !(s6 >= bound) {
				heap, bound = nnInsert(heap, k, s6, j+6)
			}
			if len(heap) < k || !(s7 >= bound) {
				heap, bound = nnInsert(heap, k, s7, j+7)
			}
		}
		for ; j < m; j++ {
			rj := data[j*d : (j+1)*d : (j+1)*d][:nq]
			var s float64
			for t, v := range q {
				dd := v - rj[t]
				s += dd * dd
			}
			if len(heap) < k || !(s >= bound) {
				heap, bound = nnInsert(heap, k, s, j)
			}
		}
		// The insertion array is already in ascending (distance, id) order.
		cols, vals := c.Row(i)
		for idx, p := range heap {
			cols[idx] = p.j
			vals[idx] = e.SimFromDist2(p.d2)
		}
	}
}

// topKEmbeddingBrute8 is topKEmbeddingBrute specialized to d=8, the
// tree/brute crossover width (see bruteForceDim) and the narrowest embedding
// the scan ever sees. The query row is hoisted into eight registers once per
// row instead of reloaded per block, the per-dimension loop is fully
// unrolled, and each block of four target rows is one 32-element slice so
// every load is a constant index the compiler proves in bounds. Each
// distance still accumulates dimension-ascending in its own chain —
// bitwise identical to the generic kernel and to matrix.PairwiseSqDist —
// and the selection contract is unchanged.
func topKEmbeddingBrute8(e *Embedding, c *Candidates, lo, hi int) {
	m, k := c.Cols, c.K
	data := e.Dst.Data
	heap := make([]nnPair, 0, k)
	for i := lo; i < hi; i++ {
		q := e.Src.Row(i)
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		heap = heap[:0]
		bound := math.Inf(1)
		j := 0
		for ; j+4 <= m; j += 4 {
			r := data[j*8 : j*8+32 : j*8+32]

			t := q0 - r[0]
			s0 := t * t
			t = q1 - r[1]
			s0 += t * t
			t = q2 - r[2]
			s0 += t * t
			t = q3 - r[3]
			s0 += t * t
			t = q4 - r[4]
			s0 += t * t
			t = q5 - r[5]
			s0 += t * t
			t = q6 - r[6]
			s0 += t * t
			t = q7 - r[7]
			s0 += t * t

			t = q0 - r[8]
			s1 := t * t
			t = q1 - r[9]
			s1 += t * t
			t = q2 - r[10]
			s1 += t * t
			t = q3 - r[11]
			s1 += t * t
			t = q4 - r[12]
			s1 += t * t
			t = q5 - r[13]
			s1 += t * t
			t = q6 - r[14]
			s1 += t * t
			t = q7 - r[15]
			s1 += t * t

			t = q0 - r[16]
			s2 := t * t
			t = q1 - r[17]
			s2 += t * t
			t = q2 - r[18]
			s2 += t * t
			t = q3 - r[19]
			s2 += t * t
			t = q4 - r[20]
			s2 += t * t
			t = q5 - r[21]
			s2 += t * t
			t = q6 - r[22]
			s2 += t * t
			t = q7 - r[23]
			s2 += t * t

			t = q0 - r[24]
			s3 := t * t
			t = q1 - r[25]
			s3 += t * t
			t = q2 - r[26]
			s3 += t * t
			t = q3 - r[27]
			s3 += t * t
			t = q4 - r[28]
			s3 += t * t
			t = q5 - r[29]
			s3 += t * t
			t = q6 - r[30]
			s3 += t * t
			t = q7 - r[31]
			s3 += t * t

			if len(heap) < k || !(s0 >= bound) {
				heap, bound = nnInsert(heap, k, s0, j)
			}
			if len(heap) < k || !(s1 >= bound) {
				heap, bound = nnInsert(heap, k, s1, j+1)
			}
			if len(heap) < k || !(s2 >= bound) {
				heap, bound = nnInsert(heap, k, s2, j+2)
			}
			if len(heap) < k || !(s3 >= bound) {
				heap, bound = nnInsert(heap, k, s3, j+3)
			}
		}
		for ; j < m; j++ {
			r := data[j*8 : j*8+8 : j*8+8]
			t := q0 - r[0]
			s := t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			t = q4 - r[4]
			s += t * t
			t = q5 - r[5]
			s += t * t
			t = q6 - r[6]
			s += t * t
			t = q7 - r[7]
			s += t * t
			if len(heap) < k || !(s >= bound) {
				heap, bound = nnInsert(heap, k, s, j)
			}
		}
		cols, vals := c.Row(i)
		for idx, p := range heap {
			cols[idx] = p.j
			vals[idx] = e.SimFromDist2(p.d2)
		}
	}
}

// nnPair is a brute-force scan candidate: target row j at squared distance d2.
type nnPair struct {
	d2 float64
	j  int
}

// nnInsert inserts (d2, j) into the bounded k-nearest selection array, kept
// in ascending (distance, id) order, and returns the array and the new
// eviction bound: +Inf until the array fills, the worst kept distance after.
// Ids arrive ascending, so on equal distance the newcomer sits behind the
// incumbents — the same tie contract as the k-d tree path. Callers
// pre-filter against the bound, so a call is always an actual insertion; at
// candidate-set sizes the copy is cheaper than heap sifts, and the array
// needs no final sort.
func nnInsert(arr []nnPair, k int, d2 float64, j int) ([]nnPair, float64) {
	pos := len(arr)
	for pos > 0 && arr[pos-1].d2 > d2 {
		pos--
	}
	if len(arr) < k {
		arr = arr[:len(arr)+1]
	}
	copy(arr[pos+1:], arr[pos:])
	arr[pos] = nnPair{d2, j}
	if len(arr) < k {
		return arr, math.Inf(1)
	}
	return arr, arr[len(arr)-1].d2
}

// Matchable reports whether the candidate graph admits a matching that
// saturates every row (a prerequisite for the auction solver: rows that
// cannot all be matched within their candidates make the auction chase an
// infeasible assignment). It runs Hopcroft–Karp over the candidate edges,
// O(E sqrt(V)) — negligible next to the solve itself. Rows > Cols is
// trivially unmatchable.
func (c *Candidates) Matchable() bool {
	if c.Rows > c.Cols {
		return false
	}
	return c.maxMatching() == c.Rows
}

// maxMatching is Hopcroft–Karp over the candidate bipartite graph, returning
// the maximum number of simultaneously matchable rows.
func (c *Candidates) maxMatching() int {
	mm, _, _ := c.maxMatchingState(nil)
	return mm
}

// MaxMatching returns the maximum number of simultaneously matchable rows
// (Hopcroft–Karp over the candidate edges).
func (c *Candidates) MaxMatching() int { return c.maxMatching() }

// maxMatchingState runs Hopcroft–Karp and additionally returns the matching
// itself (row -> col and col -> row, -1 for free), for callers that repair an
// unmatchable candidate graph (see AugmentEmbedding/AugmentFactor). seed,
// when length Rows, pre-matches each (i, seed[i]) pair that is still a
// candidate edge and collision-free (first row wins, ascending) before the
// search runs; Hopcroft–Karp only grows a matching, so seeded pairs survive
// unless absorbed into an augmenting path — which keeps the matching (and
// hence the repair built on it) stable across small candidate-set edits
// instead of reshuffling wholesale.
func (c *Candidates) maxMatchingState(seed []int) (int, []int, []int) {
	const inf = int(^uint(0) >> 1)
	n := c.Rows
	matchRow := make([]int, n) // row -> col, -1 free
	matchCol := make([]int, c.Cols)
	for i := range matchRow {
		matchRow[i] = -1
	}
	for j := range matchCol {
		matchCol[j] = -1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	matched := 0
	if len(seed) == n {
		for i, j := range seed {
			if j < 0 || j >= c.Cols || matchCol[j] != -1 {
				continue
			}
			cols, _ := c.Row(i)
			for _, cj := range cols {
				if cj == j {
					matchRow[i], matchCol[j] = j, i
					matched++
					break
				}
			}
		}
	}
	for {
		// BFS layering from free rows.
		queue = queue[:0]
		for i := 0; i < n; i++ {
			if matchRow[i] == -1 {
				dist[i] = 0
				queue = append(queue, i)
			} else {
				dist[i] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			i := queue[qi]
			cols, _ := c.Row(i)
			for _, j := range cols {
				next := matchCol[j]
				if next == -1 {
					found = true
				} else if dist[next] == inf {
					dist[next] = dist[i] + 1
					queue = append(queue, next)
				}
			}
		}
		if !found {
			return matched, matchRow, matchCol
		}
		// DFS augmentation along the layering.
		var try func(i int) bool
		try = func(i int) bool {
			cols, _ := c.Row(i)
			for _, j := range cols {
				next := matchCol[j]
				if next == -1 || (dist[next] == dist[i]+1 && try(next)) {
					matchRow[i] = j
					matchCol[j] = i
					return true
				}
			}
			dist[i] = inf
			return false
		}
		for i := 0; i < n; i++ {
			if matchRow[i] == -1 && try(i) {
				matched++
			}
		}
	}
}
