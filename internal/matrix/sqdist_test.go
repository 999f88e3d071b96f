package matrix

import (
	"math/rand"
	"testing"
)

func naivePairwiseSqDist(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				d := a.At(i, k) - b.At(j, k)
				s += d * d
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestPairwiseSqDistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n, m, d := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(6)
		a, b := NewDense(n, d), NewDense(m, d)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := PairwiseSqDist(a, b)
		want := naivePairwiseSqDist(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: flat %d: %v != %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPairwiseSqDistParallelIdentical(t *testing.T) {
	// 128*128*128 = 2^21 = ParallelFlops: exactly at the row-blocked gate.
	// The parallel result must be bitwise identical to the naive serial loop.
	rng := rand.New(rand.NewSource(4))
	a, b := NewDense(128, 128), NewDense(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := PairwiseSqDist(a, b)
	want := naivePairwiseSqDist(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("flat %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestPairwiseSqDistZeroDistanceDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewDense(10, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	d := PairwiseSqDist(a, a)
	for i := 0; i < a.Rows; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("d(%d,%d) = %v, want exactly 0", i, i, d.At(i, i))
		}
	}
}
