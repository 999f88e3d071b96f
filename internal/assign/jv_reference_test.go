package assign

import (
	"math"

	"graphalign/internal/matrix"
)

// Test oracles: the per-element formulations of SolveJV and SolveHungarian,
// kept verbatim. The production solvers read row slices directly but must
// perform the same comparisons and arithmetic in the same order, so their
// mappings are bitwise these (TestSolveJVMatchesReference,
// TestSolveHungarianMatchesReference).

// solveJVReference is SolveJV written over a per-element cost closure.
func solveJVReference(sim *matrix.Dense) []int {
	nRows, nCols := sim.Rows, sim.Cols
	if nRows == 0 {
		return nil
	}
	n := nCols // pad rows up to square
	// cost[i][j] = -sim for real rows; 0 for padding rows.
	cost := func(i, j int) float64 {
		if i < nRows {
			return -sim.At(i, j)
		}
		return 0
	}

	inf := math.Inf(1)
	rowsol := make([]int, n) // column assigned to row
	colsol := make([]int, n) // row assigned to column
	u := make([]float64, n)  // row potentials (dual)
	v := make([]float64, n)  // column potentials (dual)
	for i := range rowsol {
		rowsol[i] = -1
		colsol[i] = -1
	}

	// --- Column reduction ---
	matches := 0
	for j := n - 1; j >= 0; j-- {
		minVal := cost(0, j)
		iMin := 0
		for i := 1; i < n; i++ {
			if c := cost(i, j); c < minVal {
				minVal = c
				iMin = i
			}
		}
		v[j] = minVal
		if rowsol[iMin] == -1 {
			rowsol[iMin] = j
			colsol[j] = iMin
			matches++
		}
	}

	// Collect unassigned rows.
	var free []int
	for i := 0; i < n; i++ {
		if rowsol[i] == -1 {
			free = append(free, i)
		}
	}

	// --- Augmenting row reduction (two passes, as in the original) ---
	for pass := 0; pass < 2; pass++ {
		var nextFree []int
		for _, i := range free {
			// Find the two smallest reduced costs in row i.
			min1, min2 := inf, inf
			j1, j2 := -1, -1
			for j := 0; j < n; j++ {
				red := cost(i, j) - v[j]
				if red < min1 {
					min2, j2 = min1, j1
					min1, j1 = red, j
				} else if red < min2 {
					min2, j2 = red, j
				}
			}
			u[i] = min2
			if min1 < min2 {
				v[j1] += min1 - min2
			} else if j2 >= 0 {
				j1 = j2
			}
			if prev := colsol[j1]; prev >= 0 {
				if min1 < min2 {
					// Steal the column; previous owner retries.
					rowsol[prev] = -1
					nextFree = append(nextFree, prev)
					rowsol[i] = j1
					colsol[j1] = i
				} else {
					nextFree = append(nextFree, i)
				}
			} else {
				rowsol[i] = j1
				colsol[j1] = i
			}
		}
		free = nextFree
		if len(free) == 0 {
			break
		}
	}

	// --- Shortest augmenting paths for remaining free rows ---
	d := make([]float64, n)
	pred := make([]int, n)
	colList := make([]int, n)
	for _, freeRow := range free {
		for j := 0; j < n; j++ {
			d[j] = cost(freeRow, j) - v[j]
			pred[j] = freeRow
			colList[j] = j
		}
		low, up := 0, 0 // columns in colList[:low] are scanned, [low:up] to scan with min d
		var endOfPath = -1
		minD := 0.0
		for endOfPath == -1 {
			if low == up {
				// Find columns with the minimum d among unscanned.
				minD = d[colList[up]]
				for k := up; k < n; k++ {
					j := colList[k]
					if d[j] <= minD {
						if d[j] < minD {
							minD = d[j]
							up = low
						}
						colList[k], colList[up] = colList[up], colList[k]
						up++
					}
				}
				// Any minimum column unassigned? Then we can stop.
				for k := low; k < up; k++ {
					j := colList[k]
					if colsol[j] == -1 {
						endOfPath = j
						break
					}
				}
			}
			if endOfPath != -1 {
				break
			}
			// Scan one column from the minimum set.
			j1 := colList[low]
			low++
			i := colsol[j1]
			h := cost(i, j1) - v[j1] - minD
			for k := up; k < n; k++ {
				j := colList[k]
				nd := cost(i, j) - v[j] - h
				if nd < d[j] {
					d[j] = nd
					pred[j] = i
					if nd == minD {
						if colsol[j] == -1 {
							endOfPath = j
							break
						}
						colList[k], colList[up] = colList[up], colList[k]
						up++
					}
				}
			}
		}
		// Update column potentials for scanned columns.
		for k := 0; k < low; k++ {
			j := colList[k]
			v[j] += d[j] - minD
		}
		// Augment along the alternating path.
		for {
			i := pred[endOfPath]
			colsol[endOfPath] = i
			endOfPath, rowsol[i] = rowsol[i], endOfPath
			if i == freeRow {
				break
			}
		}
	}

	mapping := make([]int, nRows)
	copy(mapping, rowsol[:nRows])
	return mapping
}

// solveHungarianReference is SolveHungarian written over sim.At with
// per-row scratch allocation.
func solveHungarianReference(sim *matrix.Dense) []int {
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
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := -sim.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
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

// The oracles, exported to the external assign_test package.
var (
	SolveJVReference        = solveJVReference
	SolveHungarianReference = solveHungarianReference
)
