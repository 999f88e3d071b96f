package assign

import (
	"math"

	"graphalign/internal/matrix"
)

// SolveJV solves the maximum-similarity linear assignment problem with the
// Jonker–Volgenant algorithm: a column-reduction / augmenting-row-reduction
// preprocessing phase followed by shortest augmenting paths for the rows
// left unassigned. For square dense problems it visits far fewer augmenting
// paths than the plain Hungarian algorithm, which is why the paper adopts it
// as the common assignment stage; it is also the exact fallback of the
// sparse pipeline (SolveSparse) when the candidate graph is unmatchable.
//
// The matrix may be rectangular with Rows <= Cols; internally it is padded
// to square with zero similarity. mapping[i] is the column assigned to row i.
//
// Cost model: the shortest-augmenting-path phase scans one O(n) row per
// column it settles, for every row left free by the reduction phases, so
// tie-heavy matrices (many equivalent rows, hence many free rows) dominate
// the run time. The kernels read each row's similarity slice directly and
// perform every comparison and arithmetic operation in the order of the
// textbook per-element formulation, so the mapping — and the duals — are
// bitwise those of that formulation (pinned against a verbatim reference
// copy by TestSolveJVMatchesReference).
func SolveJV(sim *matrix.Dense) []int {
	nRows, nCols := sim.Rows, sim.Cols
	if nRows == 0 {
		return nil
	}
	n := nCols // pad rows up to square
	// The cost of (i, j) is -simRow(i)[j]. Padding rows share one row of
	// negative zeros, whose negation is exactly the +0 a padding row costs.
	var pad []float64
	if nRows < n {
		pad = make([]float64, n)
		for j := range pad {
			pad[j] = math.Copysign(0, -1)
		}
	}
	simRow := func(i int) []float64 {
		if i < nRows {
			return sim.Data[i*n : (i+1)*n : (i+1)*n]
		}
		return pad
	}

	inf := math.Inf(1)
	rowsol := make([]int, n) // column assigned to row
	colsol := make([]int, n) // row assigned to column
	u := make([]float64, n)  // row potentials (dual)
	v := make([]float64, n)  // column potentials (dual)
	d := make([]float64, n)
	pred := make([]int, n)
	colList := make([]int, n)
	for i := range rowsol {
		rowsol[i] = -1
		colsol[i] = -1
	}

	// --- Column reduction ---
	// v[j] becomes column j's minimum cost and pred[j] its first minimizing
	// row: rows are visited in ascending order with a strict <, so each
	// column picks the same row as a column-by-column scan would.
	for j, s := range simRow(0) {
		v[j] = -s
		pred[j] = 0
	}
	for i := 1; i < n; i++ {
		row := simRow(i)
		vr, iMin := v[:len(row)], pred[:len(row)]
		for j, s := range row {
			if c := -s; c < vr[j] {
				vr[j] = c
				iMin[j] = i
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		if iMin := pred[j]; rowsol[iMin] == -1 {
			rowsol[iMin] = j
			colsol[j] = iMin
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
			row := simRow(i)
			vr := v[:len(row)]
			min1, min2 := inf, inf
			j1, j2 := -1, -1
			for j, s := range row {
				red := -s - vr[j]
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
	for _, freeRow := range free {
		row := simRow(freeRow)
		vr, dr, pr, cl := v[:len(row)], d[:len(row)], pred[:len(row)], colList[:len(row)]
		for j, s := range row {
			dr[j] = -s - vr[j]
			pr[j] = freeRow
			cl[j] = j
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
			endOfPath, up = jvScan(simRow(i), i, j1, minD, v, d, pred, colsol, colList, up)
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

// jvScan scans column j1, held by row i whose similarities are row: it
// relaxes d and pred of every unscanned column cl[up:] through it and moves
// the columns that reach minD into the to-scan set. It returns the first
// such column that is unassigned (the end of an augmenting path, or -1) and
// the new up. This loop is where SolveJV spends its time; it is a separate
// function so that its state stays in registers.
func jvScan(row []float64, i, j1 int, minD float64, v, d []float64, pred, colsol, cl []int, up int) (int, int) {
	// Re-slicing to len(row) lets one bounds check on row[j] cover the rest.
	v, d, pred, colsol = v[:len(row)], d[:len(row)], pred[:len(row)], colsol[:len(row)]
	h := -row[j1] - v[j1] - minD
	for k := up; k < len(cl); k++ {
		j := cl[k]
		nd := -row[j] - v[j] - h
		if nd < d[j] {
			d[j] = nd
			pred[j] = i
			if nd == minD {
				if colsol[j] == -1 {
					return j, up
				}
				cl[k], cl[up] = cl[up], cl[k]
				up++
			}
		}
	}
	return -1, up
}
