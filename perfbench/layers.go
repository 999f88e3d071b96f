package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/metrics"
	"graphalign/internal/obsv"
	"graphalign/internal/partition"
)

// paperAligners are the nine aligners of the study, in Table 1 order.
var paperAligners = graphalign.Algorithms()

// innerPhases are the phases aligners already report through
// algo.Instrumented, as <aligner>.<phase>.
var innerPhases = []string{
	"GRASP.eigendecomposition",
	"GRASP.heat_kernels",
	"GRASP.feature_distance",
	"GRASP.base_alignment",
	"IsoRank.power_iteration",
	"S-GWL.leaf_solve",
}

// layerMetric is one per-layer metric name with its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric; each traced run reports all of
// them, with 0 for a layer its workload does not exercise.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, a := range paperAligners {
		out = append(out,
			layerMetric{"algo." + a + ".sim_ms", "ms"},
			layerMetric{"algo." + a + ".alloc_mib", "MiB"})
	}
	for _, p := range innerPhases {
		out = append(out, layerMetric{"algo." + p + "_ms", "ms"})
	}
	return append(out,
		layerMetric{"algo.NSD.factors_ms", "ms"},
		layerMetric{"algo.REGAL.embed_ms", "ms"},
		layerMetric{"assign.solve_ms", "ms"},
		layerMetric{"assign.solve_share", "fraction"},
		layerMetric{"assign.candidates_ms", "ms"},
		layerMetric{"assign.sparse_solve_ms", "ms"},
		layerMetric{"assign.auction_rounds", "count"},
		layerMetric{"assign.fallback_frac", "fraction"},
		layerMetric{"partition.copartition_ms", "ms"},
		layerMetric{"partition.align_ms", "ms"},
		layerMetric{"partition.stitch_ms", "ms"},
		layerMetric{"partition.boundary_nodes", "count"},
		layerMetric{"partition.rebound_frac", "fraction"},
		layerMetric{"partition.intra_edge_frac", "fraction"},
		layerMetric{"metrics.score_ms", "ms"},
		layerMetric{"gen.inputs_ms", "ms"},
		layerMetric{"incremental.apply_ms", "ms"},
		layerMetric{"incremental.warm_frac", "fraction"},
		layerMetric{"incremental.dirty_rows", "count"},
		layerMetric{"incremental.rebid_rows", "count"},
		layerMetric{"incremental.rounds", "count"},
		layerMetric{"incremental.cold_ms", "ms"},
		layerMetric{"serve.submit_ms", "ms"},
		layerMetric{"serve.fetch_ms", "ms"},
		layerMetric{"serve.queue_wait_ms.repeat", "ms"},
		layerMetric{"serve.queue_wait_ms.fresh", "ms"},
		layerMetric{"serve.run_ms.repeat", "ms"},
		layerMetric{"serve.run_ms.fresh", "ms"},
		layerMetric{"serve.rejected_frac", "fraction"},
		layerMetric{"serve.edit_overhead_ms", "ms"},
		layerMetric{"serve.job_p50_ms", "ms"},
		layerMetric{"serve.job_p90_ms", "ms"},
		layerMetric{"serve.edit_p50_ms", "ms"},
		layerMetric{"serve.edit_p90_ms", "ms"},
		layerMetric{"cache.hit_frac", "fraction"},
		layerMetric{"cache.evictions", "count"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"runtime.gc_pause_ms", "ms"},
		layerMetric{"trace.overhead_s", "s"},
	)
}

// setLayers reports every per-layer metric, taking values from vals and 0
// for the rest.
func setLayers(rep *report, vals map[string]float64) {
	known := make(map[string]bool)
	for _, m := range layerMetrics() {
		known[m.name] = true
		rep.set(m.name, vals[m.name], m.unit)
	}
	for name := range vals {
		if !known[name] {
			panic("perfbench: unlisted layer metric " + name)
		}
	}
}

// spanLog keeps a traced run's events in memory until the run ends. The
// tracer serializes calls to Event.
type spanLog struct{ events []obsv.Event }

func (l *spanLog) Event(e obsv.Event) { l.events = append(l.events, e) }

// newTracer returns a tracer recording into a fresh span log, stamped with
// the run's identity.
func newTracer(cfg config, meta map[string]any) (*obsv.Tracer, *spanLog) {
	log := &spanLog{}
	tr := obsv.New(log).SetTraceID(fmt.Sprintf("perfbench-%s-seed%d", cfg.workload, cfg.seed))
	tr.EmitTraceMeta(meta)
	return tr, log
}

// writeTrace writes the span log as JSONL in the obsv trace schema, which
// alignstat summary (with or without -fold) reads.
func writeTrace(cfg config, log *spanLog) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	sink := obsv.NewWriterSink(bw)
	for _, e := range log.events {
		sink.Event(e)
	}
	err = sink.Err()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// runLayered performs op o by calling each layer's public functions in the
// order core.RunInstanceMapped does, with a span around each call. The
// mapping is the one the user entry point returns for the same op.
func runLayered(ctx context.Context, tr *obsv.Tracer, o op, inst *instance) ([]int, metrics.Scores, error) {
	a, err := graphalign.NewAligner(o.algo)
	if err != nil {
		return nil, metrics.Scores{}, err
	}
	src, dst := inst.pair.Source, inst.pair.Target
	run := tr.StartRun(o.algo, map[string]any{
		"mode": o.mode, "instance": inst.label,
		"n_src": src.N(), "n_dst": dst.N(),
	})
	defer run.End()
	if ia, ok := a.(algo.Instrumented); ok {
		ia.SetSpan(run)
	}

	var mapping []int
	switch o.mode {
	case modePartitioned:
		var st partition.Stats
		mapping, st, err = partition.Align(ctx, newAligner(o.algo), src, dst, assign.JonkerVolgenant, partition.Options{
			K: o.parts, TopK: o.topk, Span: run,
		})
		run.Set("shards", st.Shards)
	case modeTopK:
		mapping, err = layeredSparse(ctx, run, a, src, dst, o.topk)
	default:
		sp := run.Phase("similarity")
		var sim *matrix.Dense
		sim, err = algo.Similarity(ctx, a, src, dst)
		sp.End()
		if err != nil {
			break
		}
		sp = run.Phase("assign")
		mapping, err = assign.Solve(assign.JonkerVolgenant, sim)
		sp.End()
	}
	if err != nil {
		run.Set("err", err.Error())
		return nil, metrics.Scores{}, err
	}
	sp := run.Phase("metrics")
	scores := metrics.All(src, dst, mapping, inst.pair.TrueMap)
	sp.End()
	return mapping, scores, nil
}

// layeredSparse is the sparse pipeline: factored similarity (embeddings take
// precedence over factors, as in the core runner), per-row top-k candidates,
// then the sparse solve with its dense-JV fallback.
func layeredSparse(ctx context.Context, run *obsv.Span, a algo.Aligner, src, dst *graph.Graph, k int) ([]int, error) {
	var cands *assign.Candidates
	var dense func() *matrix.Dense
	if ea, ok := a.(algo.EmbeddingAligner); ok {
		sp := run.Phase("embed")
		emb, err := ea.EmbeddingsCtx(ctx, src, dst)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = run.Phase("candidates")
		cands = assign.TopKEmbedding(emb, k, 0)
		sp.End()
		dense = emb.Similarity
	} else if fa, ok := a.(algo.FactorAligner); ok {
		sp := run.Phase("factors")
		fac, err := fa.FactorsCtx(ctx, src, dst)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = run.Phase("candidates")
		cands = assign.TopKFactor(fac, k, 0)
		sp.End()
		dense = fac.Similarity
	} else {
		sp := run.Phase("similarity")
		sim, err := algo.Similarity(ctx, a, src, dst)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = run.Phase("candidates")
		cands = assign.TopKDense(sim, k, 0)
		sp.End()
		dense = func() *matrix.Dense { return sim }
	}
	sp := run.Phase("sparse_solve")
	mapping, stats, err := assign.SolveSparse(assign.JonkerVolgenant, cands, dense, 0)
	sp.Set("rounds", stats.Rounds)
	sp.Set("fallback", stats.FellBack)
	sp.End()
	return mapping, err
}

// phaseAgg sums one phase's spans.
type phaseAgg struct {
	n     int
	dur   float64 // ns
	alloc float64 // bytes
}

// runKey groups runs by aligner and mode.
type runKey struct{ algo, mode string }

// inprocLayers derives the algo, assign, partition and metrics layer
// metrics from a traced in-process run's events.
func inprocLayers(events []obsv.Event, vals map[string]float64) {
	runs := make(map[uint64]runKey)
	ops := make(map[runKey]int)
	var runDur float64
	phases := make(map[runKey]map[string]*phaseAgg)
	var rounds, fallbacks, boundary, moved float64
	for _, e := range events {
		switch e.Type {
		case "run_start":
			mode, _ := e.Fields["mode"].(string)
			runs[e.Span] = runKey{e.Name, mode}
		case "run_end":
			ops[runs[e.Span]]++
			runDur += float64(e.DurNS)
		case "phase":
			k, ok := runs[e.Run]
			if !ok {
				continue
			}
			if phases[k] == nil {
				phases[k] = make(map[string]*phaseAgg)
			}
			p := phases[k][e.Name]
			if p == nil {
				p = &phaseAgg{}
				phases[k][e.Name] = p
			}
			p.n++
			p.dur += float64(e.DurNS)
			p.alloc += float64(e.Alloc)
			switch {
			case e.Name == "sparse_solve":
				r, _ := e.Fields["rounds"].(int)
				rounds += float64(r)
				if fb, _ := e.Fields["fallback"].(bool); fb {
					fallbacks++
				}
			case e.Name == "refine" && k.mode == modePartitioned:
				b, _ := e.Fields["boundary_nodes"].(int)
				m, _ := e.Fields["moved"].(int)
				boundary += float64(b)
				moved += float64(m)
			}
		}
	}
	// total sums a phase over every run whose mode passes keep, returning
	// the span count, summed duration (ms) and summed allocation (MiB).
	total := func(name string, keep func(runKey) bool) (n int, durMS, allocMiB float64) {
		for k, ps := range phases {
			if p := ps[name]; p != nil && keep(k) {
				n += p.n
				durMS += p.dur / 1e6
				allocMiB += p.alloc / (1 << 20)
			}
		}
		return n, durMS, allocMiB
	}
	perOp := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	of := func(a, mode string) func(runKey) bool {
		return func(k runKey) bool { return k.algo == a && k.mode == mode }
	}
	inMode := func(mode string) func(runKey) bool {
		return func(k runKey) bool { return k.mode == mode }
	}
	all := func(runKey) bool { return true }

	for _, a := range paperAligners {
		n := ops[runKey{a, modeDense}]
		_, d, m := total("similarity", of(a, modeDense))
		vals["algo."+a+".sim_ms"] = perOp(d, n)
		vals["algo."+a+".alloc_mib"] = perOp(m, n)
	}
	for _, p := range innerPhases {
		a, name, _ := strings.Cut(p, ".")
		_, d, _ := total(name, of(a, modeDense))
		vals["algo."+p+"_ms"] = perOp(d, ops[runKey{a, modeDense}])
	}
	_, d, _ := total("factors", of("NSD", modeTopK))
	vals["algo.NSD.factors_ms"] = perOp(d, ops[runKey{"NSD", modeTopK}])
	_, d, _ = total("embed", of("REGAL", modeTopK))
	vals["algo.REGAL.embed_ms"] = perOp(d, ops[runKey{"REGAL", modeTopK}])

	n, d, _ := total("assign", inMode(modeDense))
	vals["assign.solve_ms"] = perOp(d, n)
	vals["assign.solve_share"] = d * 1e6 / nonZero(runDur)
	n, d, _ = total("candidates", inMode(modeTopK))
	vals["assign.candidates_ms"] = perOp(d, n)
	n, d, _ = total("sparse_solve", inMode(modeTopK))
	vals["assign.sparse_solve_ms"] = perOp(d, n)
	vals["assign.auction_rounds"] = perOp(rounds, n)
	vals["assign.fallback_frac"] = perOp(fallbacks, n)

	var partOps int
	for k, c := range ops {
		if k.mode == modePartitioned {
			partOps += c
		}
	}
	_, d, _ = total("partition", inMode(modePartitioned))
	vals["partition.copartition_ms"] = perOp(d, partOps)
	_, d, _ = total("shards", inMode(modePartitioned))
	vals["partition.align_ms"] = perOp(d, partOps)
	_, ds, _ := total("stitch", inMode(modePartitioned))
	_, dr, _ := total("refine", inMode(modePartitioned))
	vals["partition.stitch_ms"] = perOp(ds+dr, partOps)
	vals["partition.boundary_nodes"] = perOp(boundary, partOps)
	vals["partition.rebound_frac"] = moved / nonZero(boundary)

	n, d, _ = total("metrics", all)
	vals["metrics.score_ms"] = perOp(d, n)
}

// nonZero guards a ratio's denominator: an empty denominator makes the
// ratio 0 rather than NaN.
func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// intraEdgeFrac is the share of source edges whose endpoints land in the
// same shard under the co-partitioner.
func intraEdgeFrac(src, dst *graph.Graph, k int) float64 {
	cp := partition.Graphs(src, dst, k)
	shard := make([]int, src.N())
	for i, members := range cp.SrcClusters {
		for _, u := range members {
			shard[u] = i
		}
	}
	edges := src.Edges()
	intra := 0
	for _, e := range edges {
		if shard[e.U] == shard[e.V] {
			intra++
		}
	}
	return float64(intra) / nonZero(float64(len(edges)))
}
