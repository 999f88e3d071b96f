package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildAlignd builds the daemon the serve workload drives.
func buildAlignd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "alignd")
	cmd := exec.Command("go", "build", "-o", bin, "graphalign/cmd/alignd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building alignd: %v\n%s", err, out)
	}
	return bin
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units and finite values, and passes its
// own correctness gate.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	alignd := buildAlignd(t)
	out := t.TempDir()
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var buf bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "0.01",
					"--trace", trace, "--tiny", "--alignd", alignd, "--out", out}
				if err := run(args, &buf); err != nil {
					t.Fatalf("run: %v", err)
				}
				r := lastResult(t, buf.String())
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" {
					path := filepath.Join(out, "trace-"+w.Name+"-seed5.jsonl")
					if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
						t.Errorf("trace file %s missing or empty: %v", path, err)
					}
				}
			})
		}
	}
}

// TestGateRejectsCorruptMapping checks that each kind of broken mapping
// fails the gate, and that a workload reporting a failed check makes the
// command print correct=false and return an error (a nonzero exit).
func TestGateRejectsCorruptMapping(t *testing.T) {
	insts, _, err := genInstances(9, []instanceSpec{{"PL", 50}})
	if err != nil {
		t.Fatal(err)
	}
	inst := &insts[0]
	mapping, _, err := runUser(t.Context(), op{algo: "NSD", mode: modeDense}, inst)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := inst.pair.Source.N(), inst.pair.Target.N()
	if err := checkMapping(mapping, n1, n2); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	corrupt := map[string][]int{
		"short":        mapping[:n1-1],
		"out of range": append(append([]int(nil), mapping[:n1-1]...), n2),
		"negative":     append([]int{-1}, mapping[1:]...),
		"duplicate":    append([]int{mapping[1]}, mapping[1:]...),
	}
	for name, m := range corrupt {
		if checkMapping(m, n1, n2) == nil {
			t.Errorf("%s mapping passed the gate", name)
		}
	}

	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	workloads["corrupt"] = func(config) (*report, error) {
		rep := &report{}
		rep.Attempted = 1
		var incorrect []string
		if err := checkMapping(corrupt["duplicate"], n1, n2); err != nil {
			incorrect = append(incorrect, err.Error())
		}
		return rep, verdict(rep, incorrect)
	}
	defer delete(workloads, "corrupt")
	var buf bytes.Buffer
	err = run([]string{"--workload", "corrupt"}, &buf)
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("run returned %v, want errIncorrect", err)
	}
	if r := lastResult(t, buf.String()); r.Correct {
		t.Fatal("result says correct for a corrupted mapping")
	}
}
