package assign

import (
	"math"

	"graphalign/internal/matrix"
)

// SolveHungarian solves the maximum-similarity linear assignment problem
// exactly with the O(n^3) Hungarian algorithm (Kuhn–Munkres in the
// potentials formulation). It accepts rectangular matrices with
// Rows <= Cols and returns mapping[i] = assigned column for every row.
//
// This is the paper's "MWM" solver (the Hungarian variant used by LREA).
func SolveHungarian(sim *matrix.Dense) []int {
	n, m := sim.Rows, sim.Cols
	if n == 0 {
		return nil
	}
	// Internally we minimize cost = -similarity with the classic potentials
	// algorithm (1-indexed arrays as in the standard formulation).
	inf := math.Inf(1)
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	usedCols := make([]int, 0, m+1) // the columns marked used, in order
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		usedCols = usedCols[:0]
		for {
			used[j0] = true
			usedCols = append(usedCols, j0)
			i0 := p[j0]
			delta, j1 := hungarianRelax(sim.Row(i0-1), u[i0], j0, v, minv, way, used)
			// Used columns hold distinct rows, so these updates commute.
			for _, j := range usedCols {
				u[p[j]] += delta
				v[j] -= delta
			}
			// minv of used columns is never read again before the next
			// row resets it, so it is updated branch-free with the rest.
			for j := range minv {
				minv[j] -= delta
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	mapping := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			mapping[p[j]-1] = j - 1
		}
	}
	return mapping
}

// hungarianRelax is SolveHungarian's inner scan for row i0 (similarities
// row, potential ui), reached through column j0: it lowers minv/way of every
// unused column through row i0 and returns the smallest minv over the unused
// columns and the first column attaining it. The arrays are 1-based as in
// SolveHungarian; column j's cost is -row[j-1].
func hungarianRelax(row []float64, ui float64, j0 int, v, minv []float64, way []int, used []bool) (float64, int) {
	// The shifted views index the 1-based arrays by the 0-based column and
	// share row's bound, so one bounds check covers them all.
	v, minv, way, used = v[1:][:len(row)], minv[1:][:len(row)], way[1:][:len(row)], used[1:][:len(row)]
	delta := math.Inf(1)
	j1 := 0
	for j, s := range row {
		if used[j] {
			continue
		}
		cur := -s - ui - v[j]
		if cur < minv[j] {
			minv[j] = cur
			way[j] = j0
		}
		if minv[j] < delta {
			delta = minv[j]
			j1 = j + 1
		}
	}
	return delta, j1
}
