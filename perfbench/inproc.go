package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/core"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// The three ways an in-process op aligns its instance.
const (
	modeDense       = "dense"
	modeTopK        = "topk"
	modePartitioned = "partitioned"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, which keeps one slow start from moving it.
const setupReps = 9

// instance is one generated alignment problem.
type instance struct {
	label string
	pair  noise.Pair
}

// op is one alignment the closed-loop caller performs.
type op struct {
	algo  string
	inst  int
	mode  string
	topk  int
	parts int
}

// instanceSpec describes an instance before it is generated.
type instanceSpec struct {
	model gen.Model
	n     int
}

// genInstance builds one instance from the run seed and the instance's
// index, so each instance depends on nothing else.
func genInstance(seed int64, idx int, spec instanceSpec) (instance, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	g, err := gen.GenerateScaled(spec.model, spec.n, rng)
	if err != nil {
		return instance{}, err
	}
	pair, err := noise.Apply(g, noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		return instance{}, err
	}
	return instance{label: fmt.Sprintf("%s/n=%d", spec.model, spec.n), pair: pair}, nil
}

// genInstances builds every instance setupReps times and returns the last
// set with the median build time. Each build starts from a collected heap,
// so it does not pay for collecting the build before it.
func genInstances(seed int64, specs []instanceSpec) ([]instance, time.Duration, error) {
	var insts []instance
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		insts = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		insts = make([]instance, len(specs))
		for i, s := range specs {
			inst, err := genInstance(seed, i, s)
			if err != nil {
				return nil, 0, fmt.Errorf("generating %s n=%d: %w", s.model, s.n, err)
			}
			insts[i] = inst
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return insts, time.Duration(median(times) * float64(time.Second)), nil
}

func newAligner(name string) func() (algo.Aligner, error) {
	return func() (algo.Aligner, error) { return graphalign.NewAligner(name) }
}

// runUser aligns through core.RunInstanceMapped, the path alignbench and
// alignrun take.
func runUser(ctx context.Context, o op, inst *instance) ([]int, metrics.Scores, error) {
	a, err := graphalign.NewAligner(o.algo)
	if err != nil {
		return nil, metrics.Scores{}, err
	}
	res, mapping := core.RunInstanceMapped(ctx, a, inst.pair, assign.JonkerVolgenant, core.RunSpec{
		AssignTopK: o.topk,
		Partitions: o.parts,
		NewAligner: newAligner(o.algo),
	})
	return mapping, res.Scores, res.Err
}

// inprocRun is the shared loop of the grid and scale workloads: one
// closed-loop caller repeats a fixed list of ops (a pass) until the run's
// time is up, at least twice so every op's second result can be checked
// against its first.
type inprocRun struct {
	cfg   config
	insts []instance
	ops   []op
	setup time.Duration

	attempted, failed int
	incorrect         []string
	first             [][]int
	firstScores       []metrics.Scores
	passWalls         []float64 // untraced passes
	tracedWalls       []float64

	// GC cycles and pause time of the collections pass forces between ops,
	// which the runtime.* metrics leave out.
	forcedCycles uint32
	forcedPause  time.Duration
}

func (r *inprocRun) wrong(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

// pass runs every op once and returns the time spent in the ops. A nil
// tracer times the user entry point; a tracer times the layer-by-layer path.
// Before each op, outside the timed part, the heap is collected and its free
// pages go back to the OS, so an op's memory peak does not depend on how
// much garbage or unreturned memory the ops before it left, and
// peak_rss_mib is the largest op's own footprint.
func (r *inprocRun) pass(ctx context.Context, tr *obsv.Tracer) time.Duration {
	var wall time.Duration
	for i, o := range r.ops {
		r.collect()
		inst := &r.insts[o.inst]
		var mapping []int
		var scores metrics.Scores
		var err error
		t0 := time.Now()
		if tr == nil {
			mapping, scores, err = runUser(ctx, o, inst)
		} else {
			mapping, scores, err = runLayered(ctx, tr, o, inst)
		}
		wall += time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(stderr, "perfbench: %s on %s (%s): %v\n", o.algo, inst.label, o.mode, err)
			continue
		}
		if err := checkMapping(mapping, inst.pair.Source.N(), inst.pair.Target.N()); err != nil {
			r.wrong("%s on %s (%s): %v", o.algo, inst.label, o.mode, err)
			continue
		}
		if r.first[i] == nil {
			r.first[i], r.firstScores[i] = mapping, scores
			continue
		}
		if !equalInts(mapping, r.first[i]) {
			r.wrong("%s on %s (%s): mapping differs from the first result for the same input", o.algo, inst.label, o.mode)
		}
		if scores.Accuracy != r.firstScores[i].Accuracy {
			r.wrong("%s on %s (%s): accuracy %v differs from the first result %v for the same input",
				o.algo, inst.label, o.mode, scores.Accuracy, r.firstScores[i].Accuracy)
		}
	}
	return wall
}

// collect runs a full garbage collection, returns the free memory to the
// OS and books the collection's cycles and pause.
func (r *inprocRun) collect() {
	c0, p0 := gcStats()
	debug.FreeOSMemory()
	c1, p1 := gcStats()
	r.forcedCycles += c1 - c0
	r.forcedPause += p1 - p0
}

// measure runs passes until the run's time is up. With tracing on, the
// first pass is untraced (the reference for mappings and for the tracing
// overhead) and the rest are traced through tr.
func (r *inprocRun) measure(ctx context.Context, tr *obsv.Tracer) {
	r.first = make([][]int, len(r.ops))
	r.firstScores = make([]metrics.Scores, len(r.ops))
	start := time.Now()
	for p := 0; p < 2 || time.Since(start) < r.cfg.seconds; p++ {
		if tr != nil && p > 0 {
			r.tracedWalls = append(r.tracedWalls, r.pass(ctx, tr).Seconds())
		} else {
			r.passWalls = append(r.passWalls, r.pass(ctx, nil).Seconds())
		}
	}
}

// runInproc generates the instances, measures the op list and fills the
// report for either mode.
func runInproc(cfg config, rep *report, specs []instanceSpec, ops []op) error {
	insts, setup, err := genInstances(cfg.seed, specs)
	if err != nil {
		return err
	}
	r := &inprocRun{cfg: cfg, insts: insts, ops: ops, setup: setup}
	ctx := context.Background()
	if !cfg.trace {
		r.measure(ctx, nil)
		r.endToEnd(rep)
		return r.finish(rep)
	}

	tr, log := newTracer(cfg, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "sizes": rep.sizes})
	gc0, pause0 := gcStats()
	r.measure(ctx, tr)
	gc1, pause1 := gcStats()
	vals := make(map[string]float64)
	inprocLayers(log.events, vals)
	vals["gen.inputs_ms"] = ms(setup)
	// Per traced pass; the untraced reference pass is inside the window too,
	// so divide by every pass run.
	passes := float64(len(r.passWalls) + len(r.tracedWalls))
	vals["runtime.gc_cycles"] = float64(gc1-gc0-r.forcedCycles) / passes
	vals["runtime.gc_pause_ms"] = ms(pause1-pause0-r.forcedPause) / passes
	vals["trace.overhead_s"] = median(r.tracedWalls) - median(r.passWalls)
	var intra []float64
	seen := make(map[int]bool)
	for _, o := range ops {
		if o.mode == modePartitioned && !seen[o.inst] {
			seen[o.inst] = true
			p := insts[o.inst].pair
			intra = append(intra, intraEdgeFrac(p.Source, p.Target, o.parts))
		}
	}
	vals["partition.intra_edge_frac"] = mean(intra)
	setLayers(rep, vals)
	if err := writeTrace(cfg, log); err != nil {
		return err
	}
	return r.finish(rep)
}

// endToEnd fills the end-to-end metrics of an untraced run.
func (r *inprocRun) endToEnd(rep *report) {
	var acc, ec []float64
	for i := range r.ops {
		if r.first[i] != nil {
			acc = append(acc, r.firstScores[i].Accuracy)
			ec = append(ec, r.firstScores[i].EC)
		}
	}
	rep.set("setup_s", r.setup.Seconds(), "s")
	rep.set("wall_s", median(r.passWalls), "s")
	rep.set("peak_rss_mib", peakRSSMiB(0), "MiB")
	rep.set("accuracy", mean(acc), "fraction")
	rep.set("ec", mean(ec), "fraction")
	rep.set("ok_frac", okFrac(r.attempted, r.failed), "fraction")
}

// finish fills the result's counts and correctness.
func (r *inprocRun) finish(rep *report) error {
	rep.Attempted, rep.Failed = r.attempted, r.failed
	return verdict(rep, r.incorrect)
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// gcStats reads the process's GC cycle count and total pause time.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
