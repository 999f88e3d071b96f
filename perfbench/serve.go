package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphalign"
	"graphalign/internal/assign"
	"graphalign/internal/core"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// serveSetupReps is how many times a serve run sets up; setup_s is the
// median. Each set-up starts a daemon and cold-aligns the session, so it
// repeats fewer times than the in-process workloads' input generation.
const serveSetupReps = 5

// serveSizes are the serve workload's list lengths and graph sizes.
type serveSizes struct {
	jobs, edits, repeatPairs int
	nMin, nStep, nSteps      int
	sessionN, topk           int
}

func serveSizing(tiny bool) serveSizes {
	if tiny {
		return serveSizes{jobs: 8, edits: 8, repeatPairs: 2, nMin: 60, nStep: 10, nSteps: 3, sessionN: 120, topk: 16}
	}
	return serveSizes{jobs: 240, edits: 400, repeatPairs: 4, nMin: 300, nStep: 50, nSteps: 5, sessionN: 450, topk: 16}
}

// servedPair is one uploaded graph pair: the edge-list texts, the graphs as
// the daemon parses them (its dense ids are first-appearance order), and
// the ground truth in those ids.
type servedPair struct {
	srcText, dstText string
	src, dst         *graph.Graph
	dstLabels        []string
	truth            []int
}

// job is one submission of client A.
type job struct {
	pair   *servedPair
	repeat bool
	algo   string
	topk   int
}

func (j job) key() string { return fmt.Sprintf("%p/%s/%d", j.pair, j.algo, j.topk) }

// serveInputs is everything a serve run sends.
type serveInputs struct {
	jobs      []job
	session   *servedPair
	editTexts []string
	batches   [][]graph.Edit
}

// genServePair builds a pair whose graphs have no isolated nodes, so the
// edge-list texts carry every node, and parses it back the way the daemon
// will.
func genServePair(seed int64, idx int, model gen.Model, n int) (*servedPair, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919*int64(idx+1)))
	for try := 0; try < 20; try++ {
		g, err := gen.GenerateScaled(model, n, rng)
		if err != nil {
			return nil, err
		}
		p, err := noise.Apply(g, noise.OneWay, 0.02, noise.Options{}, rng)
		if err != nil {
			return nil, err
		}
		if hasIsolated(p.Source) || hasIsolated(p.Target) {
			continue
		}
		return parseServed(p)
	}
	return nil, fmt.Errorf("%s n=%d: no draw without isolated nodes", model, n)
}

func hasIsolated(g *graph.Graph) bool {
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) == 0 {
			return true
		}
	}
	return false
}

func parseServed(p noise.Pair) (*servedPair, error) {
	var sb, db bytes.Buffer
	if err := graph.WriteEdgeList(&sb, p.Source); err != nil {
		return nil, err
	}
	if err := graph.WriteEdgeList(&db, p.Target); err != nil {
		return nil, err
	}
	sp := &servedPair{srcText: sb.String(), dstText: db.String()}
	var srcLabels []string
	var err error
	if sp.src, srcLabels, err = graph.ReadEdgeList(strings.NewReader(sp.srcText)); err != nil {
		return nil, err
	}
	if sp.dst, sp.dstLabels, err = graph.ReadEdgeList(strings.NewReader(sp.dstText)); err != nil {
		return nil, err
	}
	dstID := make(map[string]int, len(sp.dstLabels))
	for i, l := range sp.dstLabels {
		dstID[l] = i
	}
	sp.truth = make([]int, len(srcLabels))
	for i, l := range srcLabels {
		u, err := strconv.Atoi(l)
		if err != nil {
			return nil, err
		}
		sp.truth[i] = dstID[strconv.Itoa(p.TrueMap[u])]
	}
	return sp, nil
}

// genServeInputs builds the job list, the session pair and its edit
// batches. Even jobs resubmit one of a few fixed pairs (cache hits); odd
// jobs bring a fresh pair. Jobs cycle through NSD and REGAL, dense and
// top-k, and through the five models and sizes.
func genServeInputs(seed int64, sz serveSizes) (*serveInputs, error) {
	models := gen.Models()
	pairAt := func(idx int) (*servedPair, error) {
		return genServePair(seed, idx, models[idx%len(models)], sz.nMin+sz.nStep*((idx/len(models))%sz.nSteps))
	}
	repeats := make([]*servedPair, sz.repeatPairs)
	for i := range repeats {
		var err error
		if repeats[i], err = pairAt(i); err != nil {
			return nil, err
		}
	}
	kinds := []struct {
		algo string
		topk int
	}{{"NSD", 0}, {"REGAL", 0}, {"NSD", sz.topk}, {"REGAL", sz.topk}}
	in := &serveInputs{}
	for i := 0; i < sz.jobs; i++ {
		r := i / 2
		if i%2 == 0 {
			k := kinds[(r/sz.repeatPairs)%len(kinds)]
			in.jobs = append(in.jobs, job{pair: repeats[r%sz.repeatPairs], repeat: true, algo: k.algo, topk: k.topk})
			continue
		}
		p, err := pairAt(sz.repeatPairs + r)
		if err != nil {
			return nil, err
		}
		k := kinds[r%len(kinds)]
		in.jobs = append(in.jobs, job{pair: p, algo: k.algo, topk: k.topk})
	}

	var err error
	if in.session, err = genServePair(seed, -1, gen.PL, sz.sessionN); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
	if in.batches, _, err = noise.EditStream(in.session.dst, sz.edits, 0.01, rng); err != nil {
		return nil, err
	}
	for _, b := range in.batches {
		// Edits address nodes by the labels the uploaded edge list used.
		var sb strings.Builder
		for _, e := range b {
			fmt.Fprintf(&sb, "%s %s %s\n", e.Op, in.session.dstLabels[e.U], in.session.dstLabels[e.V])
		}
		if len(b) == 0 {
			sb.WriteString("noop\n")
		}
		in.editTexts = append(in.editTexts, sb.String())
	}
	return in, nil
}

// daemon is a running alignd.
type daemon struct {
	cmd         *exec.Cmd
	url, debug  string
	exited      chan error
	client      *http.Client
	sessionID   string
	sessionCold time.Duration
}

// startDaemon runs alignd on an ephemeral loopback port with one job worker
// and one thread per job, so jobs and the session's edits together load at
// most two CPUs.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs --alignd")
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-workers", "1", "-job-workers", "1", "-queue", "64",
		"-cache-budget", "64MiB", "-runtime-sample", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), client: &http.Client{Timeout: 5 * time.Minute}}
	// Sized for the two address lines alignd prints; later output is
	// dropped so the reader never blocks.
	addrs := make(chan string, 2)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "alignd: ") {
				select {
				case addrs <- line:
				default:
				}
			}
		}
		d.exited <- cmd.Wait()
	}()
	timeout := time.After(30 * time.Second)
	for d.url == "" || d.debug == "" {
		select {
		case line := <-addrs:
			if s, ok := strings.CutPrefix(line, "alignd: listening on "); ok {
				d.url = s
			}
			if s, ok := strings.CutPrefix(line, "alignd: debug server on "); ok {
				d.debug = strings.TrimSuffix(s, "/debug/pprof/")
			}
		case err := <-d.exited:
			return nil, fmt.Errorf("alignd exited before listening: %v", err)
		case <-timeout:
			d.stop()
			return nil, errors.New("alignd did not report its address")
		}
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain stalls.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) postJSON(path string, body any) (int, []byte, time.Duration, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, time.Since(t0), err
}

func (d *daemon) get(url string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out, time.Since(t0), err
}

// createSession uploads the session pair with the README's defaults (no
// tuning fields); the daemon cold-aligns it before answering.
func (d *daemon) createSession(p *servedPair) error {
	code, body, rt, err := d.postJSON("/v1/sessions", map[string]any{
		"algo": "REGAL", "src": p.srcText, "dst": p.dstText,
	})
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create session: status %d: %s", code, body)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	d.sessionID, d.sessionCold = v.ID, rt
	return nil
}

// counters reads the daemon's cache counters from /metrics and its GC
// totals from /debug/vars.
func (d *daemon) counters() (map[string]float64, error) {
	out := make(map[string]float64)
	body, _, err := d.get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && strings.HasPrefix(f[0], "graphalign_cache_") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[strings.TrimPrefix(f[0], "graphalign_")] = v
			}
		}
	}
	body, _, err = d.get(d.debug + "/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		MemStats struct {
			NumGC        float64
			PauseTotalNs float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, err
	}
	out["gc_cycles"] = vars.MemStats.NumGC
	out["gc_pause_ns"] = vars.MemStats.PauseTotalNs
	return out, nil
}

// jobOutcome is one job's measured life.
type jobOutcome struct {
	mapping            []int
	latency, submit    time.Duration
	fetch              time.Duration
	queueWait, runTime time.Duration
	rejected           int
	repeat             bool
	err                error
}

// editOutcome is one edit batch's round trip and the daemon's stats.
type editOutcome struct {
	roundTrip time.Duration
	stats     struct {
		Warm      bool    `json:"warm"`
		DirtyRows int     `json:"dirty_rows"`
		RebidRows int     `json:"rebid_rows"`
		Rounds    int     `json:"rounds"`
		Noop      bool    `json:"noop"`
		TimeMS    float64 `json:"time_ms"`
	}
	err error
}

// servePass is one pass of both clients against one daemon.
type servePass struct {
	jobs   []jobOutcome
	edits  []editOutcome
	final  []int // the session's mapping after every batch
	wall   time.Duration
	rssMiB float64
	before map[string]float64
	after  map[string]float64
}

// runJob submits one job, follows its event stream to the end and fetches
// the result.
func (d *daemon) runJob(j job, tr *obsv.Tracer) (o jobOutcome) {
	o.repeat = j.repeat
	kind := "fresh"
	if j.repeat {
		kind = "repeat"
	}
	run := tr.StartRun("job", map[string]any{"algo": j.algo, "topk": j.topk, "kind": kind, "n_src": j.pair.src.N()})
	defer run.End()
	t0 := time.Now()
	sp := run.Phase("submit")
	id, rt, rejected, err := d.submit(j)
	sp.End()
	o.submit, o.rejected = rt, rejected
	if err != nil {
		o.err = err
		return o
	}

	sp = run.Phase("wait")
	_, _, err = d.get(d.url + "/v1/jobs/" + id + "/events")
	sp.End()
	if err != nil {
		o.err = err
		return o
	}
	sp = run.Phase("fetch")
	body, rt, err := d.get(d.url + "/v1/jobs/" + id)
	sp.End()
	o.latency = time.Since(t0)
	o.fetch = rt
	if err != nil {
		o.err = err
		return o
	}
	var v struct {
		Status    string `json:"status"`
		Error     string `json:"error"`
		CreatedNS int64  `json:"created_unix_ns"`
		StartedNS int64  `json:"started_unix_ns"`
		DoneNS    int64  `json:"finished_unix_ns"`
		Result    *struct {
			Mapping []int `json:"mapping"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		o.err = err
		return o
	}
	if v.Status != "done" || v.Result == nil {
		o.err = fmt.Errorf("job %s ended %s: %s", id, v.Status, v.Error)
		return o
	}
	o.mapping = v.Result.Mapping
	o.queueWait = time.Duration(v.StartedNS - v.CreatedNS)
	o.runTime = time.Duration(v.DoneNS - v.StartedNS)
	run.Set("queue_wait_ms", ms(o.queueWait))
	run.Set("run_ms", ms(o.runTime))
	return o
}

// submit posts a job until the daemon accepts it, retrying each 429 after
// 50 ms. It returns the job id, the accepted request's round trip and the
// number of 429s.
func (d *daemon) submit(j job) (string, time.Duration, int, error) {
	rejected := 0
	for {
		code, body, rt, err := d.postJSON("/v1/jobs", map[string]any{
			"algo": j.algo, "method": string(assign.JonkerVolgenant), "topk": j.topk,
			"src": j.pair.srcText, "dst": j.pair.dstText,
		})
		switch {
		case err != nil:
			return "", 0, rejected, err
		case code == http.StatusTooManyRequests:
			rejected++
			time.Sleep(50 * time.Millisecond)
			continue
		case code != http.StatusAccepted:
			return "", 0, rejected, fmt.Errorf("submit: status %d: %s", code, body)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", 0, rejected, err
		}
		return v.ID, rt, rejected, nil
	}
}

// runEdit posts one edit batch to the session.
func (d *daemon) runEdit(text string, tr *obsv.Tracer) (o editOutcome) {
	run := tr.StartRun("edit", nil)
	defer run.End()
	code, body, rt, err := d.postJSON("/v1/sessions/"+d.sessionID+"/edits", map[string]string{"edits": text})
	o.roundTrip = rt
	if err != nil {
		o.err = err
		return o
	}
	if code != http.StatusOK {
		o.err = fmt.Errorf("edits: status %d: %s", code, body)
		return o
	}
	var v struct {
		Stats []json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		o.err = err
		return o
	}
	if len(v.Stats) != 1 {
		o.err = fmt.Errorf("edits: %d batch stats for one batch", len(v.Stats))
		return o
	}
	if err := json.Unmarshal(v.Stats[0], &o.stats); err != nil {
		o.err = err
	}
	run.Set("time_ms", o.stats.TimeMS)
	run.Set("warm", o.stats.Warm)
	return o
}

// pass runs client A (jobs) and client B (edit batches) side by side, each
// a closed loop, and collects the session's final mapping.
func (d *daemon) pass(in *serveInputs, tr *obsv.Tracer) (*servePass, error) {
	p := &servePass{jobs: make([]jobOutcome, len(in.jobs)), edits: make([]editOutcome, len(in.editTexts))}
	var err error
	if p.before, err = d.counters(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, j := range in.jobs {
			p.jobs[i] = d.runJob(j, tr)
		}
	}()
	go func() {
		defer wg.Done()
		for i, text := range in.editTexts {
			p.edits[i] = d.runEdit(text, tr)
		}
	}()
	wg.Wait()
	p.wall = time.Since(t0)
	if p.after, err = d.counters(); err != nil {
		return nil, err
	}
	p.rssMiB = peakRSSMiB(d.cmd.Process.Pid)
	body, _, err := d.get(d.url + "/v1/sessions/" + d.sessionID)
	if err != nil {
		return nil, err
	}
	var v struct {
		Mapping []int `json:"mapping"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	p.final = v.Mapping
	return p, nil
}

// serveSetup generates the inputs, starts the daemon and creates the
// session; the cold alignment happens inside the create call.
func serveSetup(cfg config, sz serveSizes) (*serveInputs, *daemon, time.Duration, time.Duration, error) {
	t0 := time.Now()
	in, err := genServeInputs(cfg.seed, sz)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	genTime := time.Since(t0)
	d, err := startDaemon(cfg.alignd)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := d.createSession(in.session); err != nil {
		d.stop()
		return nil, nil, 0, 0, err
	}
	return in, d, genTime, time.Since(t0), nil
}

// runServe is alignd on loopback with two closed-loop clients: A submits
// NSD and REGAL jobs, half of them resubmissions of a few fixed pairs; B
// posts 1% edit batches to one session.
func runServe(cfg config) (*report, error) {
	sz := serveSizing(cfg.tiny)
	rep := &report{sizes: map[string]any{
		"jobs": sz.jobs, "edits": sz.edits, "repeat_pairs": sz.repeatPairs,
		"job_n": fmt.Sprintf("%d-%d", sz.nMin, sz.nMin+sz.nStep*(sz.nSteps-1)), "topk": sz.topk,
		"session_n": sz.sessionN, "session_algo": "REGAL", "edit_level": 0.01, "clients": 2,
	}}

	// Set up several times; every set-up but the last is torn down, and
	// each starts from a collected heap so it does not pay for collecting
	// the inputs of the one before it.
	var in *serveInputs
	var d *daemon
	var setups, gens, colds []float64
	for i := 0; i < serveSetupReps; i++ {
		var genT, total time.Duration
		var err error
		if d != nil {
			d.stop()
		}
		in = nil
		debug.FreeOSMemory()
		in, d, genT, total, err = serveSetup(cfg, sz)
		if err != nil {
			return rep, err
		}
		setups = append(setups, total.Seconds())
		gens = append(gens, ms(genT))
		colds = append(colds, ms(d.sessionCold))
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	var incorrect []string
	wrong := func(format string, args ...any) { incorrect = append(incorrect, fmt.Sprintf(format, args...)) }

	var tr *obsv.Tracer
	var log *spanLog
	first, err := d.pass(in, nil)
	if err != nil {
		return rep, err
	}
	passes := []*servePass{first}
	if cfg.trace {
		// A second daemon, set up the same way, serves the traced pass.
		d.stop()
		if d, err = startDaemon(cfg.alignd); err != nil {
			return rep, err
		}
		if err := d.createSession(in.session); err != nil {
			return rep, err
		}
		tr, log = newTracer(cfg, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "sizes": rep.sizes})
		traced, err := d.pass(in, tr)
		if err != nil {
			return rep, err
		}
		passes = append(passes, traced)
	}

	// Correctness: every mapping valid, every job byte-identical to the
	// in-process run of the same spec, the session identical to an
	// in-process replay, and the traced pass identical to the untraced one.
	var replay []int
	var replayErr error
	replayDone := make(chan struct{})
	go func() {
		defer close(replayDone)
		replay, replayErr = replaySession(in)
	}()
	expected, err := expectedMappings(in)
	<-replayDone
	if err != nil {
		return rep, err
	}
	if replayErr != nil {
		return rep, replayErr
	}
	for pi, p := range passes {
		for i, o := range p.jobs {
			rep.Attempted++
			if o.err != nil {
				rep.Failed++
				fmt.Fprintf(stderr, "perfbench: job %d: %v\n", i, o.err)
				continue
			}
			j := in.jobs[i]
			if err := checkMapping(o.mapping, j.pair.src.N(), j.pair.dst.N()); err != nil {
				wrong("pass %d job %d: %v", pi, i, err)
			} else if !equalInts(o.mapping, expected[j.key()]) {
				wrong("pass %d job %d (%s topk=%d): served mapping differs from core.RunInstanceMapped", pi, i, j.algo, j.topk)
			}
			if pi > 0 && !equalInts(o.mapping, first.jobs[i].mapping) {
				wrong("pass %d job %d: mapping differs from the first pass", pi, i)
			}
		}
		for i, o := range p.edits {
			rep.Attempted++
			if o.err != nil {
				rep.Failed++
				fmt.Fprintf(stderr, "perfbench: edit batch %d: %v\n", i, o.err)
			}
		}
		if err := checkMapping(p.final, in.session.src.N(), in.session.dst.N()); err != nil {
			wrong("pass %d session: %v", pi, err)
		} else if !equalInts(p.final, replay) {
			wrong("pass %d: session mapping differs from an in-process incremental.Session replay", pi)
		}
	}

	if !cfg.trace {
		// Quality is averaged over the distinct alignments served, so the
		// few resubmitted pairs do not outweigh the fresh ones.
		var acc, ec []float64
		seen := make(map[string]bool)
		for i, o := range first.jobs {
			j := in.jobs[i]
			if o.err == nil && !seen[j.key()] {
				seen[j.key()] = true
				s := metrics.All(j.pair.src, j.pair.dst, o.mapping, j.pair.truth)
				acc = append(acc, s.Accuracy)
				ec = append(ec, s.EC)
			}
		}
		rep.set("setup_s", median(setups), "s")
		rep.set("wall_s", first.wall.Seconds(), "s")
		rep.set("peak_rss_mib", first.rssMiB, "MiB")
		rep.set("accuracy", mean(acc), "fraction")
		rep.set("ec", mean(ec), "fraction")
		rep.set("ok_frac", okFrac(rep.Attempted, rep.Failed), "fraction")
	} else {
		vals := serveLayers(passes[1])
		vals["gen.inputs_ms"] = median(gens)
		vals["incremental.cold_ms"] = median(colds)
		vals["trace.overhead_s"] = passes[1].wall.Seconds() - first.wall.Seconds()
		setLayers(rep, vals)
		if err := writeTrace(cfg, log); err != nil {
			return rep, err
		}
	}
	return rep, verdict(rep, incorrect)
}

// serveLayers derives the serve, incremental, cache and runtime layer
// metrics from one pass.
func serveLayers(p *servePass) map[string]float64 {
	vals := make(map[string]float64)
	var lat, submit, fetch, qwR, qwF, runR, runF []float64
	var rejected, submits float64
	for _, o := range p.jobs {
		rejected += float64(o.rejected)
		submits += float64(o.rejected + 1)
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency))
		submit = append(submit, ms(o.submit))
		fetch = append(fetch, ms(o.fetch))
		if o.repeat {
			qwR = append(qwR, ms(o.queueWait))
			runR = append(runR, ms(o.runTime))
		} else {
			qwF = append(qwF, ms(o.queueWait))
			runF = append(runF, ms(o.runTime))
		}
	}
	var edit, overhead, apply, dirty, rebid, rounds []float64
	var warm, applies float64
	for _, o := range p.edits {
		if o.err != nil {
			continue
		}
		edit = append(edit, ms(o.roundTrip))
		overhead = append(overhead, ms(o.roundTrip)-o.stats.TimeMS)
		if o.stats.Noop {
			continue
		}
		applies++
		if o.stats.Warm {
			warm++
		}
		apply = append(apply, o.stats.TimeMS)
		dirty = append(dirty, float64(o.stats.DirtyRows))
		rebid = append(rebid, float64(o.stats.RebidRows))
		rounds = append(rounds, float64(o.stats.Rounds))
	}
	vals["serve.job_p50_ms"] = quantile(lat, 0.5)
	vals["serve.job_p90_ms"] = quantile(lat, 0.9)
	vals["serve.edit_p50_ms"] = quantile(edit, 0.5)
	vals["serve.edit_p90_ms"] = quantile(edit, 0.9)
	vals["serve.submit_ms"] = mean(submit)
	vals["serve.fetch_ms"] = mean(fetch)
	vals["serve.queue_wait_ms.repeat"] = mean(qwR)
	vals["serve.queue_wait_ms.fresh"] = mean(qwF)
	vals["serve.run_ms.repeat"] = mean(runR)
	vals["serve.run_ms.fresh"] = mean(runF)
	vals["serve.rejected_frac"] = rejected / nonZero(submits)
	vals["serve.edit_overhead_ms"] = mean(overhead)
	vals["incremental.apply_ms"] = mean(apply)
	vals["incremental.warm_frac"] = warm / nonZero(applies)
	vals["incremental.dirty_rows"] = mean(dirty)
	vals["incremental.rebid_rows"] = mean(rebid)
	vals["incremental.rounds"] = mean(rounds)
	delta := func(k string) float64 { return p.after[k] - p.before[k] }
	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
	vals["cache.hit_frac"] = hits / nonZero(hits+misses)
	vals["cache.evictions"] = delta("cache_evictions_total")
	vals["runtime.gc_cycles"] = delta("gc_cycles")
	vals["runtime.gc_pause_ms"] = delta("gc_pause_ns") / 1e6
	return vals
}

// expectedMappings runs every distinct job spec in-process through
// core.RunInstanceMapped, on the graphs as the daemon parsed them. It runs
// once the daemon is idle, beside the session replay, on one thread.
func expectedMappings(in *serveInputs) (map[string][]int, error) {
	out := make(map[string][]int)
	for _, j := range in.jobs {
		if _, ok := out[j.key()]; ok {
			continue
		}
		a, err := graphalign.NewAligner(j.algo)
		if err != nil {
			return nil, err
		}
		res, mapping := core.RunInstanceMapped(context.Background(), a,
			noise.Pair{Source: j.pair.src, Target: j.pair.dst}, assign.JonkerVolgenant,
			core.RunSpec{AssignTopK: j.topk, Workers: 1})
		if res.Err != nil {
			return nil, fmt.Errorf("in-process %s: %w", j.algo, res.Err)
		}
		out[j.key()] = mapping
	}
	return out, nil
}

// replaySession replays the session's batches through an in-process
// incremental.Session with the daemon's defaults.
func replaySession(in *serveInputs) ([]int, error) {
	a, err := graphalign.NewAligner("REGAL")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess, err := incremental.NewSession(ctx, a, in.session.src, in.session.dst, incremental.Options{TopK: 10, Workers: 1})
	if err != nil {
		return nil, err
	}
	for i, b := range in.batches {
		if _, err := sess.Apply(ctx, b); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
	}
	return sess.Mapping(), nil
}
