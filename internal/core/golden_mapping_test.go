package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/cone"
	"graphalign/internal/algo/graal"
	"graphalign/internal/algo/grasp"
	"graphalign/internal/algo/gwl"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/algo/sgwl"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/noise"
)

// goldenAligners are the nine aligners of the study, built with default
// hyperparameters.
var goldenAligners = []func() algo.Aligner{
	func() algo.Aligner { return isorank.New() },
	func() algo.Aligner { return graal.New() },
	func() algo.Aligner { return nsd.New() },
	func() algo.Aligner { return lrea.New() },
	func() algo.Aligner { return regal.New() },
	func() algo.Aligner { return gwl.New() },
	func() algo.Aligner { return sgwl.New() },
	func() algo.Aligner { return cone.New() },
	func() algo.Aligner { return grasp.New() },
}

// goldenModes are the run configurations the mapping fixture pins: the
// dense solvers, the sparse candidate pipeline, the partition-align-stitch
// layer, and the two composed.
var goldenModes = []struct {
	name   string
	method assign.Method
	spec   RunSpec
}{
	{"dense-jv", assign.JonkerVolgenant, RunSpec{}},
	{"dense-nn", assign.NearestNeighbor, RunSpec{}},
	{"topk8", assign.JonkerVolgenant, RunSpec{AssignTopK: 8}},
	{"part4", assign.JonkerVolgenant, RunSpec{Partitions: 4}},
	{"part4-topk8", assign.JonkerVolgenant, RunSpec{Partitions: 4, AssignTopK: 8}},
}

// renderGoldenMappings aligns one small labelled PL pair with every aligner
// in every mode through RunInstanceMapped and renders the mappings, one
// "<algo> <mode> <mapping...>" line each.
func renderGoldenMappings(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(2023))
	g := gen.PowerlawCluster(80, 3, 0.3, rng)
	pair, err := noise.Apply(g, noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, mk := range goldenAligners {
		for _, m := range goldenModes {
			spec := m.spec
			spec.Workers = 2
			spec.NewAligner = func() (algo.Aligner, error) { return mk(), nil }
			a := mk()
			res, mapping := RunInstanceMapped(context.Background(), a, pair, m.method, spec)
			if res.Err != nil {
				t.Fatalf("%s %s: %v", a.Name(), m.name, res.Err)
			}
			fmt.Fprintf(&buf, "%s %s", a.Name(), m.name)
			for _, v := range mapping {
				fmt.Fprintf(&buf, " %d", v)
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// TestGoldenMappings pins the mapping every aligner produces in every run
// mode — dense JV, dense NN, top-8 sparse, 4-way partitioned, and 4-way
// partitioned with top-8 sparse shards — byte for byte. A diff means an
// aligner, a solver, the candidate pipeline, the partition layer or the
// runner's dispatch changed behavior; if intentional, regenerate with
//
//	go test ./internal/core -run TestGoldenMappings -update-golden
//
// and commit the fixture alongside the change that explains it.
func TestGoldenMappings(t *testing.T) {
	if testing.Short() {
		t.Skip("golden mappings run nine aligners in five modes")
	}
	got := renderGoldenMappings(t)
	path := filepath.Join("testdata", "golden_mappings.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("mapping drifted from %s at line %d\n--- want\n%s\n--- got\n%s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("mapping fixture %s has %d lines, got %d", path, len(wl), len(gl))
	}
}
