package core

import (
	"context"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
)

// TestRunInstanceSpecSparseDense exercises the sparse assignment pipeline for
// a non-embedding aligner (IsoRank: dense similarity, bounded-heap top-k) on
// every dense method it can map from.
func TestRunInstanceSpecSparseDense(t *testing.T) {
	p := smallPair(t)
	for _, method := range []assign.Method{assign.JonkerVolgenant, assign.NearestNeighbor, assign.SortGreedy} {
		res := runOne(isorank.New(), p, method,
			RunSpec{AssignTopK: 10})
		if res.Err != nil {
			t.Fatalf("%s: %v", method, res.Err)
		}
		if res.Scores.Accuracy < 0 || res.Scores.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v out of range", method, res.Scores.Accuracy)
		}
		if res.AssignTime <= 0 {
			t.Errorf("%s: assignment time not measured", method)
		}
		// MNC is only defined over valid mappings; a negative value would
		// signal a malformed extraction.
		if res.Scores.MNC < 0 {
			t.Errorf("%s: MNC %v negative", method, res.Scores.MNC)
		}
	}
}

// TestRunInstanceSpecSparseEmbedding routes REGAL through the factored
// embedding path (k-NN candidate generation, no dense similarity matrix) and
// checks the result is a valid scored mapping.
func TestRunInstanceSpecSparseEmbedding(t *testing.T) {
	p := smallPair(t)
	var a algo.Aligner = regal.New()
	if _, ok := a.(algo.EmbeddingAligner); !ok {
		t.Fatal("REGAL must implement algo.EmbeddingAligner")
	}
	res := runOne(a, p, assign.JonkerVolgenant,
		RunSpec{AssignTopK: 10})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Scores.Accuracy < 0 || res.Scores.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", res.Scores.Accuracy)
	}
}

// TestRunInstanceSpecSparseFactored routes NSD and LREA through the factored
// candidate path (top-k against the rank-one factor lists, no dense
// similarity matrix) and checks each yields exactly the dense pipeline's
// scores: TopKFactor selects bitwise what TopKDense would from the densified
// matrix, so with the same solver the mapping must agree.
func TestRunInstanceSpecSparseFactored(t *testing.T) {
	p := smallPair(t)
	aligners := []algo.Aligner{nsd.New(), lrea.New()}
	for _, a := range aligners {
		if _, ok := a.(algo.FactorAligner); !ok {
			t.Fatalf("%s must implement algo.FactorAligner", a.Name())
		}
		res := runOne(a, p, assign.JonkerVolgenant,
			RunSpec{AssignTopK: 10})
		if res.Err != nil {
			t.Fatalf("%s: %v", a.Name(), res.Err)
		}
		dense := runOne(a, p, assign.JonkerVolgenant, RunSpec{})
		if dense.Err != nil {
			t.Fatalf("%s dense: %v", a.Name(), dense.Err)
		}
		if res.Scores.Accuracy < dense.Scores.Accuracy-1e-12 {
			t.Fatalf("%s: factored sparse accuracy %v below dense %v",
				a.Name(), res.Scores.Accuracy, dense.Scores.Accuracy)
		}
	}
}

// TestRunInstanceSpecSparseMatchesAcrossWorkers: the sparse pipeline is
// deterministic in the worker count.
func TestRunInstanceSpecSparseMatchesAcrossWorkers(t *testing.T) {
	p := smallPair(t)
	ref := runOne(isorank.New(), p, assign.JonkerVolgenant,
		RunSpec{AssignTopK: 10, Workers: 1})
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, workers := range []int{2, 4} {
		res := runOne(isorank.New(), p, assign.JonkerVolgenant,
			RunSpec{AssignTopK: 10, Workers: workers})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		// Scores are a pure function of the mapping, so equal scores across
		// worker counts witness the determinism contract end to end.
		if res.Scores != ref.Scores {
			t.Fatalf("workers=%d: scores %+v != serial %+v", workers, res.Scores, ref.Scores)
		}
	}
}

// TestRunInstanceSpecZeroTopKUnchanged: AssignTopK=0 must reproduce the
// dense pipeline exactly — the similarity matrix solved by the dense
// solver, nothing in between (the byte-identity contract the golden test
// checks end to end).
func TestRunInstanceSpecZeroTopKUnchanged(t *testing.T) {
	p := smallPair(t)
	sim, err := isorank.New().Similarity(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assign.Solve(assign.JonkerVolgenant, sim)
	if err != nil {
		t.Fatal(err)
	}
	res, got := RunInstanceMapped(context.Background(), isorank.New(), p, assign.JonkerVolgenant, RunSpec{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("mapping[%d] = %d, dense solve gives %d", u, got[u], want[u])
		}
	}
}
