// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one named workload, measures it for a given time, checks every
// output it gets, and prints one JSON result as the last line of standard
// output:
//
//	perfbench --workload grid|scale|serve --seed N --seconds S --trace 0|1
//	          [--alignd path] [--out dir] [--tiny]
//
// With --trace 0 the result carries the end-to-end metrics, timed through
// the entry points users call: core.RunInstanceMapped (the alignbench and
// alignrun path) for grid and scale, and the alignd daemon over loopback
// HTTP for serve. With --trace 1 the same work is timed a second way, by
// calling each layer's public functions from this package with a span
// around each call; the spans go to <out>/trace-<workload>-seed<N>.jsonl in
// the obsv trace schema, and the result carries the per-layer metrics.
//
// Inputs are generated from --seed alone. The run exits nonzero when any
// output is wrong: a mapping of the wrong length, out of range or not
// one-to-one; a served mapping that differs from the in-process one; a
// session whose final mapping differs from an in-process replay; or a
// repeated input whose result changes. README.md lists the workloads, the
// metrics and which layer is expected to move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	alignd   string
	out      string
	tiny     bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result plus the sizes it ran
// at, for the stamp line.
type report struct {
	result
	sizes map[string]any
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// errIncorrect marks a run whose outputs failed the correctness gate; the
// result is still printed (with correct=false) before the nonzero exit.
var errIncorrect = errors.New("perfbench: incorrect output")

var workloads = map[string]func(config) (*report, error){
	"grid":  runGrid,
	"scale": runScale,
	"serve": runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: grid, scale or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 20, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.alignd, "alignd", "", "alignd binary (serve workload)")
	fs.StringVar(&cfg.out, "out", ".bench_build/traces", "directory for trace files")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (self-test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have grid, scale, serve)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	cfg.trace = trace == 1
	cfg.seconds = time.Duration(seconds * float64(time.Second))

	rep, err := wl(cfg)
	if err != nil && !errors.Is(err, errIncorrect) {
		return err
	}
	stamp := map[string]any{
		"stamp":      true,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    seconds,
		"trace":      cfg.trace,
		"sizes":      rep.sizes,
	}
	line, jerr := json.Marshal(stamp)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintln(stdout, string(line))
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	line, jerr = json.Marshal(rep.result)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintln(stdout, string(line))
	return err
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// median of a non-empty sample; 0 for an empty one.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
