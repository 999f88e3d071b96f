package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphalign"
	"graphalign/internal/core"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv/tracefile"
)

func TestMain(m *testing.M) {
	if os.Getenv("RUN_ALIGNRUN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_ALIGNRUN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// runStdout is run with stdout and stderr kept apart but both returned,
// stdout first, so mapping lines cannot interleave with the metrics line.
func runStdout(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_ALIGNRUN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String() + stderr.String(), err
}

// writeInstance creates a base/noisy pair of edge-list files plus a truth
// file, returning their paths.
func writeInstance(t *testing.T) (src, dst, truth string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	base := gen.PowerlawCluster(80, 3, 0.3, rng)
	pair, err := noise.Apply(base, noise.OneWay, 0.01, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	src = filepath.Join(dir, "src.edges")
	dst = filepath.Join(dir, "dst.edges")
	truth = filepath.Join(dir, "truth.txt")
	if err := graphalign.WriteGraphFile(src, pair.Source); err != nil {
		t.Fatal(err)
	}
	if err := graphalign.WriteGraphFile(dst, pair.Target); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(truth)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for u, v := range pair.TrueMap {
		fmt.Fprintf(w, "%d %d\n", u, v)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return src, dst, truth
}

func TestAlignWithTruth(t *testing.T) {
	src, dst, truth := writeInstance(t)
	out, err := run(t, "-algo", "IsoRank", "-src", src, "-dst", dst, "-truth", truth, "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "accuracy=") {
		t.Errorf("metrics line missing accuracy:\n%s", out)
	}
	if !strings.Contains(out, "S3=") || !strings.Contains(out, "MNC=") {
		t.Errorf("metrics line incomplete:\n%s", out)
	}
}

func TestMappingOutput(t *testing.T) {
	src, dst, _ := writeInstance(t)
	out, err := run(t, "-algo", "NSD", "-assign", "SG", "-src", src, "-dst", dst)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Mapping lines: "label label" pairs, one per source node.
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(strings.TrimSpace(line), " ") == 1 && !strings.Contains(line, "=") {
			lines++
		}
	}
	if lines < 70 {
		t.Errorf("expected ~80 mapping lines, got %d:\n%s", lines, out)
	}
}

func TestMissingArguments(t *testing.T) {
	if _, err := run(t, "-algo", "NSD"); err == nil {
		t.Error("missing -src/-dst accepted")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	src, dst, _ := writeInstance(t)
	if out, err := run(t, "-algo", "Nope", "-src", src, "-dst", dst); err == nil {
		t.Errorf("unknown algorithm accepted:\n%s", out)
	}
}

func TestTraceOutProducesParsableTrace(t *testing.T) {
	src, dst, _ := writeInstance(t)
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "-algo", "NSD", "-src", src, "-dst", dst, "-q", "-trace-out", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	parsed, err := tracefile.ReadFiles(trace)
	if err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	if len(parsed.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(parsed.Runs))
	}
	r := parsed.Runs[0]
	if r.Algo != "NSD" || r.Incomplete {
		t.Fatalf("run = %+v", r)
	}
	names := map[string]bool{}
	for _, c := range r.Root.Children {
		names[c.Name] = true
	}
	if !names["similarity"] || !names["assign"] {
		t.Errorf("span tree missing similarity/assign phases; have %v", names)
	}
	if !strings.HasPrefix(r.Trace, "alignrun-") {
		t.Errorf("trace id = %q, want alignrun- prefix", r.Trace)
	}
	meta := parsed.Meta[r.Trace]
	if meta["cmd"] != "alignrun" || meta["algo"] != "NSD" {
		t.Errorf("trace_meta = %v, want cmd=alignrun algo=NSD", meta)
	}
}

func TestTimeSplitReported(t *testing.T) {
	src, dst, _ := writeInstance(t)
	out, err := run(t, "-algo", "NSD", "-src", src, "-dst", dst, "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, field := range []string{"time=", "sim_time=", "assign_time="} {
		if !strings.Contains(out, field) {
			t.Errorf("metrics line missing %s:\n%s", field, out)
		}
	}
}

// parseMapping reads alignrun's "srcLabel dstLabel" stdout lines back into
// a dense mapping over the given label orders (-1 = unprinted).
func parseMapping(t *testing.T, out string, srcLabels, dstLabels []string) []int {
	t.Helper()
	srcID, dstID := labelIDs(srcLabels), labelIDs(dstLabels)
	mapping := make([]int, len(srcLabels))
	for i := range mapping {
		mapping[i] = -1
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.Contains(line, "=") {
			continue
		}
		u, ok1 := srcID[f[0]]
		v, ok2 := dstID[f[1]]
		if !ok1 || !ok2 {
			t.Fatalf("mapping line %q names an unknown label", line)
		}
		mapping[u] = v
	}
	return mapping
}

func labelIDs(labels []string) map[string]int {
	ids := make(map[string]int, len(labels))
	for i, l := range labels {
		ids[l] = i
	}
	return ids
}

// TestTopKMonolithic: -topk applies to a monolithic run. The trace's
// assign phase records the candidate count, and the printed mapping is
// exactly the in-process sparse run's.
func TestTopKMonolithic(t *testing.T) {
	src, dst, _ := writeInstance(t)
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := runStdout(t, "-algo", "NSD", "-topk", "4", "-src", src, "-dst", dst, "-trace-out", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	parsed, err := tracefile.ReadFiles(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(parsed.Runs))
	}
	var topk any
	for _, c := range parsed.Runs[0].Root.Children {
		if c.Name == "assign" {
			topk = c.Fields["topk"]
		}
	}
	if topk != float64(4) {
		t.Errorf("assign phase topk = %v, want 4", topk)
	}

	g1, l1, err := graphalign.ReadGraphFile(src)
	if err != nil {
		t.Fatal(err)
	}
	g2, l2, err := graphalign.ReadGraphFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	a, err := graphalign.NewAligner("NSD")
	if err != nil {
		t.Fatal(err)
	}
	res, want := core.RunInstanceMapped(context.Background(), a, noise.Pair{Source: g1, Target: g2},
		a.DefaultAssignment(), core.RunSpec{AssignTopK: 4})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := parseMapping(t, out, l1, l2)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("printed mapping[%s] = %d, in-process top-4 run gives %d", l1[u], got[u], want[u])
		}
	}
}

// TestGraphgenRoundTripAccuracy runs the documented quickstart — graphgen
// generates and perturbs a graph with a truth file, alignrun aligns the pair
// and scores it — and requires the printed accuracy to equal
// metrics.Accuracy over the same mapping against the perturbation's own
// ground truth, recomputed in-process from graphgen's seed.
func TestGraphgenRoundTripAccuracy(t *testing.T) {
	dir := t.TempDir()
	gg := filepath.Join(dir, "graphgen")
	if out, err := exec.Command("go", "build", "-o", gg, "graphalign/cmd/graphgen").CombinedOutput(); err != nil {
		t.Fatalf("building graphgen: %v\n%s", err, out)
	}
	base := filepath.Join(dir, "base.edges")
	noisy := filepath.Join(dir, "noisy.edges")
	truth := filepath.Join(dir, "truth.txt")
	for _, args := range [][]string{
		{"-model", "PL", "-n", "200", "-seed", "3", "-out", base},
		{"-perturb", base, "-noise", "one-way", "-level", "0.01", "-seed", "5", "-out", noisy, "-truth", truth},
	} {
		if out, err := exec.Command(gg, args...).CombinedOutput(); err != nil {
			t.Fatalf("graphgen %v: %v\n%s", args, err, out)
		}
	}
	stdout, err := runStdout(t, "-algo", "NSD", "-src", base, "-dst", noisy, "-truth", truth)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}

	// graphgen's ground truth, recomputed: the same base read and the same
	// seeded perturbation; target ids are the labels graphgen wrote.
	g, srcLabels, err := graphalign.ReadGraphFile(base)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := noise.Apply(g, noise.OneWay, 0.01, noise.Options{}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, dstLabels, err := graphalign.ReadGraphFile(noisy)
	if err != nil {
		t.Fatal(err)
	}
	dstID := labelIDs(dstLabels)
	trueMap := make([]int, len(pair.TrueMap))
	for u, v := range pair.TrueMap {
		trueMap[u] = -1
		if id, ok := dstID[strconv.Itoa(v)]; ok {
			trueMap[u] = id
		}
	}
	acc := metrics.Accuracy(parseMapping(t, stdout, srcLabels, dstLabels), trueMap)
	if acc < 0.3 {
		t.Errorf("in-process accuracy %.4f: NSD should recover a 1%%-noise PL pair", acc)
	}
	if want := fmt.Sprintf("accuracy=%.4f", acc); !strings.Contains(stdout, want) {
		t.Errorf("alignrun printed %q, in-process scoring gives %s", lastLine(stdout), want)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
