// Command alignrun aligns two edge-list graphs with any of the nine
// algorithms and prints the node mapping plus quality measures.
//
// Usage:
//
//	alignrun -algo CONE -src a.edges -dst b.edges [-assign JV] [-truth truth.txt]
//
// The mapping is printed one "srcLabel dstLabel" pair per line on stdout;
// metrics go to stderr. When -truth is given, accuracy is reported as well.
// The truth file holds one "srcLabel dstLabel" line per source node, the
// node labels as they appear in the -src and -dst edge lists — exactly
// what `graphgen -perturb -truth` writes.
//
// Every run except -edits is one core.RunInstanceMapped call built from
// the flags, the same run the experiment drivers and the alignd daemon
// make, so the printed mapping and scores equal theirs.
//
// -trace-out run.jsonl streams structured span events (a run span with
// similarity/assign/metrics phases plus the algorithm's inner phases) as
// JSONL, ready for `alignstat summary`; tracing never changes the
// alignment.
//
// -topk K (K > 0) routes the assignment through the sparse candidate
// pipeline: each similarity row is reduced to its top-K candidates (the
// embedding- and factor-producing aligners never materialize the dense
// matrix) and solved by the ε-scaling auction, with an exact dense-JV
// fallback when the candidates leave rows unmatchable. 0 = dense.
//
// -partitions K (K >= 2) routes the run through the partition-align-stitch
// sharding layer: the graphs are co-partitioned into K matched cluster
// pairs, each pair is aligned independently across -workers goroutines with
// a fresh aligner instance, and the shard mappings are stitched with an
// auction-based boundary-refinement pass. With -topk, every shard's
// assignment runs the sparse pipeline. This is what makes n=100k
// alignments fit in commodity memory (see DESIGN.md §15); 0 = off,
// byte-identical to the monolithic path.
//
// -edits stream.edits replays an evolving-graph workload (DESIGN.md §16):
// the pair is cold-aligned once, then each blank-line-separated batch of
// "add u v" / "del u v" lines is applied to the target graph and
// re-aligned incrementally (warm-started auction, delta-tolerant candidate
// reuse). Per-batch statistics go to stderr; the printed mapping and
// metrics are those of the final alignment against the final edited
// target. -incr-out writes the incr_* metrics registry as JSON afterwards.
// Requires an embedding- or factor-producing algorithm; the assignment
// method is fixed to the warm-startable sparse auction.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"graphalign"
	"graphalign/internal/core"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

func main() {
	var (
		algoName = flag.String("algo", "CONE", "algorithm: IsoRank, GRAAL, NSD, LREA, REGAL, GWL, S-GWL, CONE, GRASP")
		srcPath  = flag.String("src", "", "source graph edge list (required)")
		dstPath  = flag.String("dst", "", "target graph edge list (required)")
		method   = flag.String("assign", "", "assignment method NN, SG, MWM, JV (default: the algorithm's own)")
		truthP   = flag.String("truth", "", "ground-truth file of 'srcLabel dstLabel' lines (node labels as in -src and -dst)")
		quiet    = flag.Bool("q", false, "suppress the mapping output, print only metrics")
		traceOut = flag.String("trace-out", "", "write span events as JSONL to this file (alignstat summary input)")
		parts    = flag.Int("partitions", 0, "partition-align-stitch sharding: co-partition into this many matched cluster pairs, align shards independently and stitch with boundary refinement; 0 = off (monolithic)")
		topK     = flag.Int("topk", 0, "sparse assignment: keep this many candidates per similarity row, per shard with -partitions (0 = dense; with -edits: candidate list length, 0 = 10)")
		workers  = flag.Int("workers", 0, "concurrent shards, sparse-assignment or refresh workers (0 = one per CPU)")
		edits    = flag.String("edits", "", "edit-stream file of blank-line-separated 'add u v'/'del u v' batches: replay incrementally against the target graph")
		incrOut  = flag.String("incr-out", "", "write the incr_* metrics registry snapshot as JSON to this file (only with -edits)")
		incrTol  = flag.Float64("incr-tol", 0, "incremental embedding-row change tolerance: 0 = bitwise, >0 = relative, <0 = refresh everything")
		incrHops = flag.Int("incr-hops", 0, "restrict incremental target refresh to nodes within this many hops of an edit (0 = tolerance only)")
		drift    = flag.Float64("drift", 0, "dirty-row fraction above which incremental re-alignment falls back to a cold solve (0 = default 0.5, >=1 = never)")
	)
	flag.Parse()
	if *srcPath == "" || *dstPath == "" {
		fmt.Fprintln(os.Stderr, "alignrun: need -src and -dst")
		flag.Usage()
		os.Exit(2)
	}
	src, srcLabels, err := graphalign.ReadGraphFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	dst, dstLabels, err := graphalign.ReadGraphFile(*dstPath)
	if err != nil {
		fatal(err)
	}

	var trueMap []int
	if *truthP != "" {
		trueMap, err = readTruth(*truthP, srcLabels, dstLabels)
		if err != nil {
			fatal(err)
		}
	}

	var tracer *obsv.Tracer
	var traceSink *obsv.WriterSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		traceSink = obsv.NewWriterSink(f)
		tracer = obsv.New(traceSink).SetTraceID(obsv.NewTraceID("alignrun"))
		tracer.EmitTraceMeta(map[string]any{
			"cmd":        "alignrun",
			"algo":       *algoName,
			"src":        *srcPath,
			"dst":        *dstPath,
			"partitions": *parts,
			"go":         runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		})
	}

	var mapping []int
	var simTime, assignTime time.Duration
	var scores graphalign.Scores
	if *edits != "" {
		if *parts >= 2 {
			fatal(fmt.Errorf("-edits and -partitions are mutually exclusive"))
		}
		mapping, dst, simTime, assignTime, err = alignIncremental(*algoName, src, dst,
			*edits, *incrOut, *topK, *workers, *incrTol, *incrHops, *drift, tracer)
		if err != nil {
			fatal(err)
		}
		scores = graphalign.Evaluate(src, dst, mapping, trueMap)
	} else {
		a, err := graphalign.NewAligner(*algoName)
		if err != nil {
			fatal(err)
		}
		m := graphalign.AssignMethod(*method)
		if m == "" {
			m = a.DefaultAssignment()
		}
		var res core.RunResult
		res, mapping = core.RunInstanceMapped(context.Background(), a,
			noise.Pair{Source: src, Target: dst, TrueMap: trueMap}, m, core.RunSpec{
				Tracer:     tracer,
				AssignTopK: *topK,
				Workers:    *workers,
				Partitions: *parts,
				NewAligner: func() (graphalign.Aligner, error) { return graphalign.NewAligner(*algoName) },
			})
		if res.Err != nil {
			fatal(res.Err)
		}
		simTime, assignTime, scores = res.SimilarityTime, res.AssignTime, res.Scores
	}
	if traceSink != nil {
		if werr := traceSink.Err(); werr != nil {
			fatal(fmt.Errorf("trace-out: %w", werr))
		}
	}
	elapsed := simTime + assignTime

	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		for u, v := range mapping {
			if v < 0 {
				continue
			}
			fmt.Fprintf(w, "%s %s\n", srcLabels[u], dstLabels[v])
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "algorithm=%s time=%s sim_time=%s assign_time=%s EC=%.4f ICS=%.4f S3=%.4f MNC=%.4f",
		*algoName, elapsed.Round(time.Millisecond), simTime.Round(time.Millisecond),
		assignTime.Round(time.Millisecond), scores.EC, scores.ICS, scores.S3, scores.MNC)
	if trueMap != nil {
		fmt.Fprintf(os.Stderr, " accuracy=%.4f", scores.Accuracy)
	}
	fmt.Fprintln(os.Stderr)
}

// alignIncremental replays an edit-stream file against the target graph:
// cold-align once (reported as the similarity time), then apply each batch
// with warm-started re-alignment (the summed apply time is reported as the
// assignment time). Returns the final mapping and the final edited target,
// which is what the printed metrics must be scored against.
func alignIncremental(name string, src, dst *graphalign.Graph, editsPath, incrOut string, topK, workers int, tol float64, hops int, drift float64, tracer *obsv.Tracer) ([]int, *graphalign.Graph, time.Duration, time.Duration, error) {
	f, err := os.Open(editsPath)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	batches, err := graph.ReadEditStream(f)
	f.Close()
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("edits: %w", err)
	}
	a, err := graphalign.NewAligner(name)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if topK == 0 {
		topK = 10
	}
	reg := obsv.NewRegistry()
	// Materialize the whole incr_* family up front so -incr-out always has
	// the full series set, zeros included, whatever the stream exercised.
	incremental.PreRegisterMetrics(reg)
	t0 := time.Now()
	sess, err := incremental.NewSession(context.Background(), a, src, dst, incremental.Options{
		TopK:           topK,
		Workers:        workers,
		DriftThreshold: drift,
		ColTolerance:   tol,
		DirtyHops:      hops,
		Tracer:         tracer,
		Registry:       reg,
	})
	simTime := time.Since(t0)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var assignTime time.Duration
	for i, batch := range batches {
		t1 := time.Now()
		stats, err := sess.Apply(context.Background(), batch)
		assignTime += time.Since(t1)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("batch %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "batch=%d edits=%d dirty_rows=%d dirty_cols=%d warm=%t rebid_rows=%d rounds=%d noop=%t time=%s\n",
			i, stats.Edits, stats.DirtyRows, stats.ChangedCols, stats.Warm,
			stats.RebidRows, stats.Rounds, stats.Noop,
			(stats.RefreshTime + stats.CandidateTime + stats.SolveTime).Round(time.Microsecond))
	}
	if incrOut != "" {
		out, err := os.Create(incrOut)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if err := reg.WriteJSON(out); err != nil {
			out.Close()
			return nil, nil, 0, 0, err
		}
		if err := out.Close(); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return sess.Mapping(), sess.Target(), simTime, assignTime, nil
}

// readTruth reads a ground-truth file of "srcLabel dstLabel" lines into
// dense ids of the loaded graphs: out[u] is the target node source node u
// truly corresponds to, -1 where the file gives none. A source label the
// -src edge list lacks is an error (the file belongs to another pair); a
// target label the -dst edge list lacks leaves its source node without
// truth, since noise can strip a target node of every edge.
func readTruth(path string, srcLabels, dstLabels []string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	srcID := make(map[string]int, len(srcLabels))
	for u, l := range srcLabels {
		srcID[l] = u
	}
	dstID := make(map[string]int, len(dstLabels))
	for v, l := range dstLabels {
		dstID[l] = v
	}
	out := make([]int, len(srcLabels))
	for i := range out {
		out[i] = -1
	}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("truth %s:%d: want 'srcLabel dstLabel', got %q", path, line, sc.Text())
		}
		u, ok := srcID[fields[0]]
		if !ok {
			return nil, fmt.Errorf("truth %s:%d: source label %q not in -src", path, line, fields[0])
		}
		if v, ok := dstID[fields[1]]; ok {
			out[u] = v
		}
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alignrun:", err)
	os.Exit(1)
}
