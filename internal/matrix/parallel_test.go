package matrix

import (
	"math/rand"
	"testing"
)

// naiveMul is the textbook reference the parallel kernels must match
// bitwise: row-blocking only partitions rows, it never reorders the
// per-row accumulation.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, av*b.At(k, j))
			}
		}
	}
	return out
}

// 160^3 ≈ 4.1M flops, comfortably above ParallelFlops, so these products
// take the row-blocked path.
func TestMulParallelMatchesSerial(t *testing.T) {
	a := randomDense(160, 160, 1)
	b := randomDense(160, 160, 11)
	got, want := Mul(a, b), naiveMul(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Mul differs from serial reference at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulABTParallelMatchesSerial(t *testing.T) {
	a := randomDense(160, 160, 2)
	b := randomDense(160, 160, 22)
	got, want := MulABT(a, b), naiveMul(a, b.T())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("MulABT differs from serial reference at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCSRMulDenseParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, nnz, cols = 500, 20000, 200 // nnz*cols = 4M > ParallelFlops
	rIdx := make([]int, nnz)
	cIdx := make([]int, nnz)
	vals := make([]float64, nnz)
	for i := range rIdx {
		rIdx[i] = rng.Intn(n)
		cIdx[i] = rng.Intn(n)
		vals[i] = rng.NormFloat64()
	}
	m, err := NewCSR(n, n, rIdx, cIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	d := randomDense(n, cols, 33)
	got, want := m.MulDense(d), naiveMul(m.ToDense(), d)
	for i := range want.Data {
		if diff := got.Data[i] - want.Data[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("CSR.MulDense differs from dense reference at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// Small products must stay on the inline path and still be correct.
func TestMulBelowThreshold(t *testing.T) {
	a := randomDense(7, 5, 4)
	b := randomDense(5, 9, 44)
	got, want := Mul(a, b), naiveMul(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("small Mul differs at %d", i)
		}
	}
}
