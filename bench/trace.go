package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"power10sim/internal/power"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/sweep"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
)

// tracer records spans and per-layer counters for a traced run. Spans come
// from the benchmark's own code, around each call it makes into a layer;
// nothing inside the repository's packages is instrumented. Spans are kept
// in memory and written out when the run ends. Every method is safe for
// concurrent use and a no-op on a nil *tracer, so untraced passes run the
// same code with tracing off.
type tracer struct {
	origin time.Time
	sem    chan struct{} // the executor's own worker slots

	mu    sync.Mutex
	trace string
	spans []span
	sums  map[string]float64
	obs   map[string][]float64
}

// span is one timed call. Parent is the enclosing span's ID (0 for a
// pass's root) and Trace names the workload pass it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sem: make(chan struct{}, workers),
		sums: map[string]float64{}, obs: map[string][]float64{}}
}

func (t *tracer) setTrace(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Microseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

type spanKey struct{}

// withSpan carries a parent span to the executor through the runner, which
// passes its context on to every execution.
func (t *tracer) withSpan(ctx context.Context, id int) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// add accumulates a per-pass sum.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// observe records one sample of a per-call distribution.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// execute is the runner.Executor a traced pass installs. It runs each
// simulation the way the runner's local path does, one layer at a time, so
// each layer is timed on its own: one functional trace.Capture per SMT
// thread (isa), uarch.Simulate over the captured streams (uarch), then the
// power report (power). It has its own worker slots, since executed
// requests bypass the runner's. Requests with an upset, a sampling spec or
// chaos are declined and run on the runner's local pool.
func (t *tracer) execute(ctx context.Context, req runner.Request) (runner.Result, bool) {
	if req.Upset != nil || req.Sample != nil || req.Chaos != nil {
		t.add("runner.local_runs", 1)
		return runner.Result{}, false
	}
	queued := time.Now()
	select {
	case t.sem <- struct{}{}:
	case <-ctx.Done():
		return runner.Result{Err: fmt.Errorf("canceled before start: %w", ctx.Err())}, true
	}
	defer func() { <-t.sem }()
	started := time.Now()
	t.add("runner.queue_wait_s", started.Sub(queued).Seconds())
	// The ledger's wall time for an executor-run request includes the wait
	// for a slot above, so the execution time is taken here instead.
	defer func() { t.observe("runner.run_ms", float64(time.Since(started).Nanoseconds())/1e6) }()
	smt := max(req.SMT, 1)
	sp := t.begin(fmt.Sprintf("sim:%s@%s/smt%d", req.W.Name, req.Cfg.Name, smt), spanOf(ctx))
	defer t.end(sp)
	fail := func(err error) (runner.Result, bool) {
		return runner.Result{Err: fmt.Errorf("%s on %s (SMT%d): %w", req.W.Name, req.Cfg.Name, smt, err), Attempts: 1}, true
	}

	streams := make([]trace.Stream, smt)
	var insts uint64
	for i := range streams {
		c := t.begin("trace.Capture", sp)
		t0 := time.Now()
		recs, err := trace.Capture(req.W.Prog, req.Budget)
		d := time.Since(t0).Seconds()
		t.end(c)
		if err != nil {
			return fail(err)
		}
		t.add("isa.busy_s", d)
		if i == 0 {
			t.add("isa.pass_s", d)
		}
		insts += uint64(len(recs))
		streams[i] = trace.NewSliceStream(req.W.Prog, recs)
	}
	t.add("isa.insts", float64(insts))

	opts := []uarch.SimOption{uarch.WithWarmup(req.Warmup), uarch.WithStrictCycleLimit()}
	if ctx.Done() != nil {
		opts = append(opts, uarch.WithContext(ctx))
	}
	s := t.begin("uarch.Simulate", sp)
	t0 := time.Now()
	res, err := uarch.Simulate(req.Cfg, streams, req.MaxCycles, opts...)
	d := time.Since(t0).Seconds()
	t.end(s)
	if err != nil {
		return fail(err)
	}
	t.add("uarch.busy_s", d)
	t.add("uarch.insts", float64(insts))
	t.add("uarch.cycles", float64(res.Activity.Cycles))
	t.observe("uarch.sim_ms", d*1e3)

	p := t.begin("power.Report", sp)
	t0 = time.Now()
	rep := power.NewModel(req.Cfg).Report(&res.Activity)
	d = time.Since(t0).Seconds()
	t.end(p)
	t.add("power.busy_s", d)
	t.add("power.reports", 1)
	t.observe("power.report_us", d*1e6)

	act := res.Activity
	return runner.Result{Activity: &act, Report: rep, Upset: res.Upset, Attempts: 1}, true
}

// capturePass times one functional trace.Capture of a request's full
// per-thread budget.
func (t *tracer) capturePass(req runner.Request) error {
	t0 := time.Now()
	if _, err := trace.Capture(req.W.Prog, req.Budget); err != nil {
		return err
	}
	t.add("isa.pass_s", time.Since(t0).Seconds())
	return nil
}

// addRunner accumulates one runner's counters and its ledger's size.
func (t *tracer) addRunner(st runner.Stats, logRecords, logBytes uint64) {
	if t == nil {
		return
	}
	t.add("runner.requests", float64(st.Hits+st.Misses))
	t.add("runner.unique_runs", float64(st.Misses))
	t.add("runner.memo_hits", float64(st.Hits))
	t.add("runner.queue_wait_s", st.QueueWait.Seconds())
	t.add("runner.retries", float64(st.Retries))
	t.add("runner.disk_hits", float64(st.DiskHits))
	t.add("runner.disk_lookups", float64(st.DiskHits+st.DiskMisses))
	t.add("runner.disk_read_mb", float64(st.DiskReadBytes)/1e6)
	t.add("runner.disk_write_mb", float64(st.DiskWrittenBytes)/1e6)
	t.add("runlog.records", float64(logRecords))
	t.add("runlog.mb", float64(logBytes)/1e6)
}

// addLedger records per-request wall times from a pass's ledger records:
// runs on the runner's local pool (run tier; the executor times its own)
// and persistent-cache loads (disk tier). A non-empty command keeps only
// records that command stamped.
func (t *tracer) addLedger(recs []runlog.Record, command string) {
	if t == nil {
		return
	}
	for _, r := range recs {
		if command != "" && r.Command != command {
			continue
		}
		switch r.Tier {
		case runlog.TierRun:
			t.observe("runner.run_ms", r.WallSeconds*1e3)
		case runlog.TierDisk:
			t.observe("runner.disk_load_ms", r.WallSeconds*1e3)
		}
	}
}

// layerMetrics assembles the metrics BENCHMARK.json lists as per_layer.
// Sums are reported per pass; distributions as percentiles over every call
// in every traced pass. A layer a workload does not reach reports zero.
func (t *tracer) layerMetrics(passes int, overhead float64) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(passes)
	per := func(k string) float64 { return t.sums[k] / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pct := func(k string, q float64) float64 { return percentile(t.obs[k], q) }
	mean := func(k string) float64 {
		xs := t.obs[k]
		var s float64
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("isa.busy_s", "s", per("isa.busy_s"))
	set("isa.insts", "count", per("isa.insts"))
	set("isa.minst_per_s", "Minst/s", ratio(t.sums["isa.insts"], t.sums["isa.busy_s"])/1e6)
	set("isa.pass_s", "s", per("isa.pass_s"))

	set("uarch.busy_s", "s", per("uarch.busy_s"))
	set("uarch.insts", "count", per("uarch.insts"))
	set("uarch.cycles", "count", per("uarch.cycles"))
	set("uarch.minst_per_s", "Minst/s", ratio(t.sums["uarch.insts"], t.sums["uarch.busy_s"])/1e6)
	set("uarch.sim_ms_p50", "ms", pct("uarch.sim_ms", 0.50))
	set("uarch.sim_ms_p95", "ms", pct("uarch.sim_ms", 0.95))

	set("power.busy_s", "s", per("power.busy_s"))
	set("power.reports", "count", per("power.reports"))
	set("power.report_us_p50", "us", pct("power.report_us", 0.50))
	set("power.report_us_p99", "us", pct("power.report_us", 0.99))

	set("runner.requests", "count", per("runner.requests"))
	set("runner.unique_runs", "count", per("runner.unique_runs"))
	set("runner.memo_hit_frac", "ratio", ratio(t.sums["runner.memo_hits"], t.sums["runner.requests"]))
	set("runner.queue_wait_s", "s", per("runner.queue_wait_s"))
	set("runner.retries", "count", per("runner.retries"))
	set("runner.local_runs", "count", per("runner.local_runs"))
	set("runner.run_ms_p50", "ms", pct("runner.run_ms", 0.50))
	set("runner.run_ms_p95", "ms", pct("runner.run_ms", 0.95))
	set("runner.disk_hit_frac", "ratio", ratio(t.sums["runner.disk_hits"], t.sums["runner.disk_lookups"]))
	set("runner.disk_read_mb", "MB", per("runner.disk_read_mb"))
	set("runner.disk_write_mb", "MB", per("runner.disk_write_mb"))
	set("runner.disk_load_ms_p50", "ms", pct("runner.disk_load_ms", 0.50))
	set("runner.disk_load_ms_p99", "ms", pct("runner.disk_load_ms", 0.99))

	set("runlog.records", "count", per("runlog.records"))
	set("runlog.mb", "MB", per("runlog.mb"))

	for _, x := range sweep.Catalog() {
		set("experiments."+x.Name+"_s", "s", per("experiments."+x.Name+"_s"))
	}

	set("sampling.plan_s", "s", per("sampling.plan_s"))
	set("sampling.run_s", "s", per("sampling.run_s"))
	set("sampling.intervals", "count", per("sampling.intervals"))
	set("sampling.k", "count", per("sampling.k"))
	set("sampling.windows", "count", per("sampling.windows"))
	set("sampling.timed_insts", "count", per("sampling.timed_insts"))
	set("sampling.covered_insts", "count", per("sampling.covered_insts"))
	set("sampling.timed_over_covered", "ratio", ratio(t.sums["sampling.timed_insts"], t.sums["sampling.covered_insts"]))
	set("sampling.cpi_err_pct", "%", mean("sampling.cpi_err_pct"))
	set("sampling.power_err_pct", "%", mean("sampling.power_err_pct"))

	set("surrogate.corpus_load_s", "s", per("surrogate.corpus_load_s"))
	set("surrogate.corpus_rows", "count", mean("surrogate.corpus_rows"))
	set("surrogate.train_s", "s", per("surrogate.train_s"))
	set("surrogate.explore_s", "s", per("surrogate.explore_s"))
	set("surrogate.validate_s", "s", per("surrogate.validate_s"))
	set("surrogate.explore_sims", "count", per("surrogate.explore_sims"))
	set("surrogate.within_gate_frac", "ratio", mean("surrogate.within_gate_frac"))
	set("surrogate.predict_us_p50", "us", pct("surrogate.predict_us", 0.50))
	set("surrogate.predict_us_p99", "us", pct("surrogate.predict_us", 0.99))
	set("surrogate.cpi_err_pct", "%", mean("surrogate.cpi_err_pct"))
	set("surrogate.power_err_pct", "%", mean("surrogate.power_err_pct"))
	set("surrogate.served_frac", "ratio", mean("surrogate.served_frac"))

	set("bench.trace_overhead", "ratio", overhead)
	return m
}

// percentile interpolates linearly between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// writeSpans writes the recorded spans as a JSON array and returns the path.
func (t *tracer) writeSpans(path string) (string, error) {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
