// Package runner is the concurrent simulation runner behind the experiment
// harness. Every table and figure of the paper reduces to a set of
// independent (Config, Workload, SMT, budget) core simulations; the runner
// fans those out across a bounded worker pool and memoizes each unique
// simulation so that the many figures which revisit the same P9/P10 baseline
// points (the Section II-B headline, Table I, the Fig. 4 ablation ladder,
// Fig. 5/6, the WOF and socket studies) pay for it exactly once per process.
//
// Soundness of the cache rests on the simulator being deterministic: the
// timing model is trace driven with no randomized state, the functional
// executor is pure, and the power model sums its components in a fixed
// sorted-name order — so two runs of the same request produce bit-identical
// Activity and Report values (see the determinism regression test in
// internal/experiments). Results are therefore returned in request order and
// a parallel sweep renders byte-identically to a serial one.
package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/sampling"
	"power10sim/internal/simobs"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Request describes one independent core simulation: the exact work
// experiments.RunOn performs after budget scaling.
type Request struct {
	Cfg *uarch.Config
	W   *workloads.Workload
	// SMT is the hardware-thread count; values < 1 are treated as 1.
	SMT int
	// Budget is the per-thread dynamic-instruction budget (already divided
	// by SMT and scaled for quick mode by the caller).
	Budget uint64
	// Warmup is the instruction count excluded from measured statistics.
	Warmup uint64
	// MaxCycles bounds the simulation.
	MaxCycles uint64
	// Upset, when non-nil, injects a single-latch upset into the run (see
	// uarch.WithUpset). The upset parameters join the cache key: two
	// requests differing only in their upsets are distinct simulations.
	Upset *uarch.Upset
	// Chaos, when non-nil, forces failures into the execution path for
	// harness testing. Keyed by spec identity.
	Chaos *ChaosSpec
	// Sample, when non-nil, runs the simulation through the SimPoint-style
	// sampling engine instead of timing every instruction: phase-classify
	// the trace, simulate a few representative intervals per phase, and
	// extrapolate (see internal/sampling). A plan whose windows would time
	// no fewer instructions than they cover runs in full instead, from the
	// plan's recording (Result.Sampling.Guarded). The normalized spec joins
	// the cache key, so sampled and full results never collide. Requests
	// with an Upset always run full: fault injection targets a specific
	// cycle of the complete run, which a sampled run never reaches.
	Sample *sampling.Spec
}

// Result is one simulation's outcome. Activity and Report are private copies:
// callers may inspect them freely without aliasing the cache.
type Result struct {
	Activity *uarch.Activity
	Report   *power.Report
	// Upset reports what an injected upset hit (nil without injection).
	Upset *uarch.UpsetOutcome
	Err   error
	// Attempts is how many executions the result took (1 without retries).
	Attempts int
	// Sampling carries the sampling metadata (interval/cluster counts,
	// confidence intervals, effective speedup) for sampled runs; nil for
	// full simulations.
	Sampling *sampling.Meta
}

// clone returns a caller-owned copy of the result so cached values can never
// be mutated through a returned pointer.
func (r Result) clone() Result {
	out := Result{Err: r.Err, Attempts: r.Attempts, Activity: copyOf(r.Activity),
		Upset: copyOf(r.Upset), Sampling: copyOf(r.Sampling)}
	if r.Report != nil {
		rep := *r.Report
		rep.Components = append([]float64(nil), r.Report.Components...)
		out.Report = &rep
	}
	return out
}

// copyOf returns a pointer to a fresh copy of *p, or nil for nil.
func copyOf[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// runCtx executes the simulation once. It mirrors the original serial
// experiments.RunOn body (including its error formatting), plus the hardened
// execution options: cooperative cancellation, a strict cycle limit so a
// wedged run surfaces as a diagnostic HangError instead of silently
// truncated statistics, and optional fault injection. tracks are extra
// options for a full simulation only (the runner's cycle tracks).
func (r Request) runCtx(ctx context.Context, tracks ...uarch.SimOption) Result {
	if r.Chaos != nil {
		if err := r.Chaos.act(ctx); err != nil {
			return Result{Err: err}
		}
	}
	smt := max(r.SMT, 1)
	var opts []uarch.SimOption
	if ctx != nil && ctx.Done() != nil {
		opts = append(opts, uarch.WithContext(ctx))
	}
	if r.Sample != nil && r.Upset == nil {
		// Upset requests fall through to the full simulation — an injected
		// fault targets a specific cycle of the complete run.
		return r.sampled(smt, opts)
	}
	// Each thread reads a read-ahead stream, so the VM runs on its own
	// goroutine while the core times what it already produced. The
	// goroutines stop on every return, a failed or canceled run's included.
	streams := make([]trace.Stream, 0, smt)
	for i := 0; i < smt; i++ {
		s := trace.NewReadAhead(r.W.Prog, r.Budget)
		defer s.Close()
		streams = append(streams, s)
	}
	res, err := r.full(streams, append(opts, tracks...))
	if err != nil {
		return r.failed(smt, "", err)
	}
	return res
}

// sampled runs a sampled request. It prepares the plan once, recording the
// trace. An unguarded plan is estimated from its representative windows
// and extrapolated. A guarded plan, whose initial windows would time at
// least as many instructions as they cover, runs in full instead: every
// thread replays the one recording, so a single functional pass feeds them
// all, and the result is the full request's bit for bit, tagged
// Meta.Guarded. Neither records cycle tracks.
func (r Request) sampled(smt int, opts []uarch.SimOption) Result {
	p, err := sampling.Prepare(r.W.Prog, r.Budget, r.Warmup, smt, *r.Sample)
	if err != nil {
		return r.failed(smt, ", sampled", err)
	}
	if !p.Guarded() {
		est, err := p.Estimate(r.Cfg, r.MaxCycles, opts...)
		if err != nil {
			return r.failed(smt, ", sampled", err)
		}
		return Result{Activity: &est.Activity, Report: est.Report, Sampling: &est.Meta}
	}
	streams := make([]trace.Stream, smt)
	for i := range streams {
		streams[i] = p.Rec.Replay(0, p.Plan.TotalInsts)
	}
	res, err := r.full(streams, opts)
	if err != nil {
		return r.failed(smt, ", sampled", err)
	}
	m := p.FullMeta(res.Activity, res.Report.Total)
	res.Sampling = &m
	return res
}

// full times every instruction of streams, one per thread, under opts and
// the request's warmup, strict cycle limit and upset.
func (r Request) full(streams []trace.Stream, opts []uarch.SimOption) (Result, error) {
	opts = append(opts, uarch.WithWarmup(r.Warmup), uarch.WithStrictCycleLimit())
	if r.Upset != nil {
		opts = append(opts, uarch.WithUpset(r.Upset))
	}
	res, err := uarch.Simulate(r.Cfg, streams, r.MaxCycles, opts...)
	if err != nil {
		return Result{}, err
	}
	return Result{Activity: &res.Activity, Report: power.NewModel(r.Cfg).Report(&res.Activity), Upset: res.Upset}, nil
}

// failed is a failed result whose error names the request:
// "workload on config (SMTn<mode>): err".
func (r Request) failed(smt int, mode string, err error) Result {
	return Result{Err: fmt.Errorf("%s on %s (SMT%d%s): %w", r.W.Name, r.Cfg.Name, smt, mode, err)}
}

// entry is one cache slot. The first requester computes the result and
// closes ready; concurrent requesters for the same key wait on it
// (singleflight), so an in-flight simulation is never duplicated.
type entry struct {
	ready chan struct{}
	res   Result
}

// Stats reports cache effectiveness and pool pressure for a sweep. Hits and
// Misses are deterministic for a given request sequence; QueueWait and
// PeakInFlight depend on scheduling and worker count, so callers report them
// on diagnostic channels (p10bench prints them to stderr), never as part of
// the byte-identical stdout contract.
type Stats struct {
	// Hits counts requests served from the cache (including waits on an
	// in-flight identical request).
	Hits uint64
	// Misses counts simulations actually executed (unique requests).
	Misses uint64
	// QueueWait is the total time executed requests spent waiting for a
	// worker slot before their simulation started.
	QueueWait time.Duration
	// PeakInFlight is the maximum number of simulations executing
	// simultaneously over the runner's lifetime.
	PeakInFlight int
	// Retries counts re-executions after transient failures.
	Retries uint64
	// Panics counts panics recovered inside workers.
	Panics uint64
	// Timeouts counts attempts aborted by the per-simulation watchdog.
	Timeouts uint64
	// Cancels counts attempts aborted by context cancellation (SIGINT).
	Cancels uint64
	// Uncached counts results withheld from the memoization cache because
	// their error was transient (the cache-poisoning guard).
	Uncached uint64
	// Remote counts executions served by an installed Executor (the
	// distributed sweep fabric) instead of the local pool.
	Remote uint64
	// DiskHits / DiskMisses count persistent-cache lookups (SetCacheDir).
	// They partition the memo Misses above: a disk hit is still a memo miss
	// (a unique request this process), so Hits/Misses — and the stdout
	// summary built from them — are unchanged by the disk layer.
	DiskHits   uint64
	DiskMisses uint64
	// DiskCorrupt counts corrupt or truncated persistent-cache entries that
	// were quarantined (renamed to <key>.bad) instead of served.
	DiskCorrupt uint64
	// DiskReadBytes / DiskWrittenBytes account persistent-cache I/O.
	DiskReadBytes    uint64
	DiskWrittenBytes uint64
}

// obs holds the runner's counters, its only record of what it did: Stats
// reads them back. New registers them in a private registry and Instrument
// moves them to the caller's, so the exported metrics and Stats can never
// disagree.
type obs struct {
	hits, misses, coalesced *telemetry.Counter
	retries, panics         *telemetry.Counter
	timeouts, cancels       *telemetry.Counter
	uncached                *telemetry.Counter
	remote                  *telemetry.Counter
	diskHits, diskMisses    *telemetry.Counter
	diskCorrupt             *telemetry.Counter
	diskReadBytes           *telemetry.Counter
	diskWrittenBytes        *telemetry.Counter
	queueWait, runLatency   *telemetry.Histogram
	busyWorkers             *telemetry.Gauge
	peakInFlight            *telemetry.Gauge
	samplingIntervals       *telemetry.Counter
	samplingSimulated       *telemetry.Counter
	samplingSpeedup         *telemetry.Gauge
	tracer                  *telemetry.Tracer
}

func newObs(reg *telemetry.Registry, tr *telemetry.Tracer) obs {
	return obs{
		hits:              reg.Counter("runner_cache_hits_total"),
		misses:            reg.Counter("runner_cache_misses_total"),
		coalesced:         reg.Counter("runner_inflight_coalesced_total"),
		retries:           reg.Counter("runner_retries_total"),
		panics:            reg.Counter("runner_panics_recovered_total"),
		timeouts:          reg.Counter("runner_watchdog_timeouts_total"),
		cancels:           reg.Counter("runner_cancels_total"),
		uncached:          reg.Counter("runner_uncached_errors_total"),
		remote:            reg.Counter("runner_remote_runs_total"),
		diskHits:          reg.Counter("runner_diskcache_hits_total"),
		diskMisses:        reg.Counter("runner_diskcache_misses_total"),
		diskCorrupt:       reg.Counter("runner_diskcache_corrupt_total"),
		diskReadBytes:     reg.Counter("runner_diskcache_read_bytes_total"),
		diskWrittenBytes:  reg.Counter("runner_diskcache_written_bytes_total"),
		queueWait:         reg.Histogram("runner_queue_wait_seconds", telemetry.DurationBuckets()),
		runLatency:        reg.Histogram("runner_run_seconds", telemetry.DurationBuckets()),
		busyWorkers:       reg.Gauge("runner_workers_busy"),
		peakInFlight:      reg.Gauge("runner_inflight_peak"),
		samplingIntervals: reg.Counter("sampling_intervals_total"),
		samplingSimulated: reg.Counter("sampling_simulated_total"),
		samplingSpeedup:   reg.Gauge("sampling_speedup"),
		tracer:            tr,
	}
}

// Policy is the runner's fault-tolerance configuration. The zero value is
// the pre-hardening behavior: no watchdog, no retries (panics are still
// recovered and transient errors still bypass the cache).
type Policy struct {
	// Timeout is the per-attempt wall-clock watchdog: each execution runs
	// under a context deadline and is cooperatively aborted (and treated as
	// transient) when it expires. 0 disables the watchdog.
	Timeout time.Duration
	// MaxAttempts bounds executions per request for transient failures
	// (panics, timeouts, tagged errors). Values < 1 mean 1: no retry.
	MaxAttempts int
	// Backoff is the base delay before the first retry; subsequent retries
	// double it (capped at 16x) with deterministic jitter derived from the
	// request, so sweeps remain reproducible. 0 retries immediately.
	Backoff time.Duration
}

// Runner is a bounded worker pool with a keyed memoization cache.
// The zero value is not usable; construct with New.
type Runner struct {
	sem    chan struct{} // one slot per worker
	base   context.Context
	policy Policy

	mu       sync.Mutex
	cache    map[key]*entry
	inflight int

	// cacheDir roots the persistent result cache; empty disables it (see
	// SetCacheDir in diskcache.go).
	cacheDir string
	// blobs keeps every CachedJSON value by its cache file path (guarded by
	// mu).
	blobs map[string]any

	// exec, when non-nil, offers cache-miss executions to an external
	// executor (the distributed sweep fabric) before the local pool (see
	// SetExecutor).
	exec Executor

	// runlog, when non-nil, receives one campaign-ledger record per
	// completed request (see SetRunLog in runlog.go).
	runlog *runlog.Ledger

	// trackEvery is the cycle-track sampling interval (see SetCycleTracks);
	// 0 records none.
	trackEvery uint64

	obs obs
	bus *progress.Bus
}

// New creates a runner allowing up to workers concurrent simulations.
// workers <= 0 selects GOMAXPROCS; workers == 1 serializes execution
// (requests still dedupe through the cache).
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:   make(chan struct{}, workers),
		base:  context.Background(),
		cache: map[key]*entry{},
		blobs: map[string]any{},
		obs:   newObs(telemetry.NewRegistry(), nil),
	}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return cap(r.sem) }

// SetPolicy installs the fault-tolerance policy. Call before submitting
// requests; SetPolicy is not synchronized with Do.
func (r *Runner) SetPolicy(p Policy) { r.policy = p }

// Executor is an external execution backend for cache-miss requests: the
// distributed sweep fabric's coordinator plugs in here. It either executes
// the request somewhere (handled true) or declines (handled false), in which
// case the request falls through to the local pool. Results an executor
// returns must obey the same determinism contract as local execution: the
// Activity of a given request is bit-identical wherever it runs.
type Executor func(ctx context.Context, req Request) (res Result, handled bool)

// SetExecutor installs an external executor. Remote executions bypass the
// local worker semaphore — their concurrency is bounded by the executor's own
// fleet — but keep every other layer: the memo cache still dedups and
// coalesces, the disk cache still persists results, and the campaign ledger
// records them under the "fabric" tier. Call before submitting requests;
// SetExecutor is not synchronized with Do.
func (r *Runner) SetExecutor(e Executor) { r.exec = e }

// SetContext sets the base context Do and RunAll derive executions from,
// threading external cancellation (SIGINT) through every simulation. Call
// before submitting requests; SetContext is not synchronized with Do.
func (r *Runner) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.base = ctx
}

// Instrument registers the runner's counters in reg and attaches a tracer.
// Either may be nil: a nil registry keeps the counters private, a nil
// tracer records no spans. One registry serves one runner, because Stats
// reads the counters back. Metrics exported:
//
//	runner_cache_hits_total / runner_cache_misses_total /
//	runner_inflight_coalesced_total   cache effectiveness counters
//	runner_queue_wait_seconds         histogram of worker-slot waits
//	runner_run_seconds                histogram of simulation latencies
//	runner_workers_busy               gauge of currently executing sims
//	runner_inflight_peak              gauge of the peak concurrency seen
//	runner_retries_total              re-executions after transient failures
//	runner_panics_recovered_total     panics recovered into Result.Err
//	runner_watchdog_timeouts_total    attempts aborted by the wall-clock watchdog
//	runner_cancels_total              attempts aborted by context cancellation
//	runner_uncached_errors_total      transient results withheld from the cache
//	runner_remote_runs_total          executions served by the installed Executor
//	runner_diskcache_corrupt_total    corrupt cache entries quarantined to .bad
//	runner_diskcache_hits_total / runner_diskcache_misses_total
//	runner_diskcache_read_bytes_total / runner_diskcache_written_bytes_total
//	                                  persistent-cache effectiveness and I/O
//	sampling_intervals_total          intervals phase-classified by sampled runs
//	sampling_simulated_total          instructions actually timed by sampled runs
//	sampling_speedup                  gauge: last sampled run's effective speedup
//
// With a tracer attached, every executed (cache-miss) simulation also emits
// a span named sim:<workload>@<config>/smt<N>. Call before submitting
// requests; Instrument is not synchronized with Do.
func (r *Runner) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r.obs = newObs(reg, tr)
}

// SetCycleTracks makes every locally executed full simulation stream
// simobs counter tracks (IPC, occupancy, cache health, component power) to
// the tracer attached by Instrument, one sample every `every` cycles.
// Sampled runs and cache hits record none; 0 (the default) or a nil tracer
// turns the tracks off. Call before submitting requests; SetCycleTracks is
// not synchronized with Do.
func (r *Runner) SetCycleTracks(every uint64) { r.trackEvery = every }

// SetBus attaches a progress bus: every cache hit, execution start/finish,
// retry, and terminal failure is published as a typed event (the feed behind
// the console renderer and the observability server's /events and /status).
// A nil bus — or a bus with no subscriber attached — costs one atomic load
// per would-be event (guarded by BenchmarkPublishNoSubscribers in
// internal/progress). Call before submitting requests; SetBus is not
// synchronized with Do.
func (r *Runner) SetBus(b *progress.Bus) { r.bus = b }

// publish constructs and publishes a simulation event only when a subscriber
// is listening, so the unobserved path never builds labels.
func (r *Runner) publish(kind progress.Kind, req Request, build func(*progress.Event)) {
	if !r.bus.Active() {
		return
	}
	ev := progress.Event{Kind: kind, Sim: "sim:" + req.Label()}
	if build != nil {
		build(&ev)
	}
	r.bus.Publish(ev)
}

// Stats returns a snapshot of the runner counters. Hits and Misses are
// deterministic for a given request sequence regardless of the worker count
// (misses equals the number of unique keys and hits the remainder);
// QueueWait and PeakInFlight are scheduling-dependent diagnostics.
func (r *Runner) Stats() Stats {
	o := &r.obs
	return Stats{
		Hits:             o.hits.Value(),
		Misses:           o.misses.Value(),
		QueueWait:        time.Duration(o.queueWait.Sum() * float64(time.Second)),
		PeakInFlight:     int(o.peakInFlight.Value()),
		Retries:          o.retries.Value(),
		Panics:           o.panics.Value(),
		Timeouts:         o.timeouts.Value(),
		Cancels:          o.cancels.Value(),
		Uncached:         o.uncached.Value(),
		Remote:           o.remote.Value(),
		DiskHits:         o.diskHits.Value(),
		DiskMisses:       o.diskMisses.Value(),
		DiskCorrupt:      o.diskCorrupt.Value(),
		DiskReadBytes:    o.diskReadBytes.Value(),
		DiskWrittenBytes: o.diskWrittenBytes.Value(),
	}
}

// Do executes one request through the cache and pool under the runner's base
// context (see SetContext).
func (r *Runner) Do(req Request) Result { return r.DoCtx(r.base, req) }

// DoCtx executes one request through the cache and pool. The context bounds
// queue waiting and, combined with the policy watchdog, each execution
// attempt. Successes and deterministic errors are memoized; transient
// failures (panics, timeouts, tagged errors) and cancellations are returned
// but never cached, so the next identical request re-executes.
//
// After the memo check a request takes one of two steps: the disk cache
// serves it without executing (serve), or it executes (run).
func (r *Runner) DoCtx(ctx context.Context, req Request) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	k, ok := keyOf(req)
	if !ok {
		// Unkeyable request (nil config/workload): execute uncached; the
		// simulation itself will report the error.
		return r.execute(ctx, req)
	}
	r.mu.Lock()
	if e, hit := r.cache[k]; hit {
		r.mu.Unlock()
		r.obs.hits.Inc()
		r.publish(progress.KindCacheHit, req, nil)
		hitStart := time.Now()
		select {
		case <-e.ready:
		default:
			// The identical simulation is still in flight: this request
			// coalesces onto it instead of running its own copy.
			r.obs.coalesced.Inc()
			<-e.ready
		}
		r.logRecord(k, req, e.res, runlog.TierMemo, time.Since(hitStart))
		return e.res.clone()
	}
	e := &entry{ready: make(chan struct{})}
	r.cache[k] = e
	r.mu.Unlock()
	r.obs.misses.Inc()
	defer close(e.ready)

	start := time.Now()
	if res, ok := r.serve(k, req); ok {
		e.res = res
		r.publish(progress.KindCacheHit, req, nil)
		r.logRecord(k, req, res, runlog.TierDisk, time.Since(start))
		return res.clone()
	}
	e.res = r.run(ctx, k, req)
	switch {
	case !cacheable(e.res.Err):
		// Cache-poisoning guard: a transient failure (or cancellation) is a
		// property of this attempt, not of the request — memoizing it would
		// replay the failure to every later identical request.
		r.uncache(k, e)
	case e.res.Err == nil && r.diskUsable(req):
		// Persist successful results only: a deterministic error is memoized
		// for this process but re-verified by the next one. A fleet-computed
		// result is as durable as a local one.
		r.diskStore(k, e.res)
	}
	return e.res.clone()
}

// serve answers a memo miss without executing, from the persistent disk
// cache an earlier process filled. It is consulted before taking a worker
// slot, so a cached result never waits behind running simulations.
func (r *Runner) serve(k key, req Request) (Result, bool) {
	if !r.diskUsable(req) {
		return Result{}, false
	}
	return r.diskLoad(k, req)
}

// run executes a request no tier served: on the installed Executor (the
// distributed sweep fabric) when it accepts the request, else on the local
// pool. Every execution opens one span and publishes sim_started once, then
// sim_finished or sim_failed, and appends one ledger record under the tier
// that ran it ("fabric" or "run").
//
// Remote executions hold no local worker slot — their concurrency is the
// fleet's — so the executor is offered the request before any slot is
// taken. When it declines, the local pool runs the request inside the span
// already open. Without an executor the slot comes first, and a request
// whose context ends while it waits never started: it publishes and logs
// nothing. Chaos self-tests always stay local: their mutable failure budgets
// must not cross process boundaries.
func (r *Runner) run(ctx context.Context, k key, req Request) Result {
	offer := r.exec != nil && req.Chaos == nil
	if !offer {
		if err := r.acquire(ctx); err != nil {
			return Result{Err: err}
		}
	}
	sp := r.obs.tracer.Begin("sim:"+req.Label(), "runner")
	r.publish(progress.KindSimStarted, req, nil)
	start := time.Now()
	var res Result
	tier, done := runlog.TierRun, false
	if offer {
		if res, done = r.exec(ctx, req); done {
			tier = runlog.TierFabric
			r.obs.remote.Inc()
		} else if err := r.acquire(ctx); err != nil {
			res, done = Result{Err: err}, true
		}
	}
	if !done {
		res = r.execute(ctx, req)
		r.setInflight(-1)
		<-r.sem
	}
	elapsed := time.Since(start)
	r.obs.runLatency.Observe(elapsed.Seconds())
	sp.End()
	kind := progress.KindSimFinished
	if res.Err != nil {
		kind = progress.KindSimFailed
	}
	r.publish(kind, req, func(ev *progress.Event) {
		ev.Elapsed = elapsed.Seconds()
		ev.Attempt = res.Attempts
		switch {
		case res.Err != nil:
			ev.Err = res.Err.Error()
		case res.Activity != nil && res.Report != nil:
			// The live IPC/power readings drive the dashboard sparklines.
			ev.IPC = res.Activity.IPC()
			ev.Power = res.Report.Total
		}
	})
	r.logRecord(k, req, res, tier, elapsed)
	return res
}

// acquire takes a local worker slot, recording the wait; it fails only when
// ctx ends first.
func (r *Runner) acquire(ctx context.Context) error {
	enqueued := time.Now()
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("canceled before start: %w", ctx.Err())
	}
	r.obs.queueWait.Observe(time.Since(enqueued).Seconds())
	r.setInflight(+1)
	return nil
}

// setInflight moves the busy-worker count and its peak. The gauges are set
// under the lock so concurrent updates land in order.
func (r *Runner) setInflight(delta int) {
	r.mu.Lock()
	r.inflight += delta
	n := float64(r.inflight)
	r.obs.busyWorkers.Set(n)
	r.obs.peakInFlight.SetMax(n)
	r.mu.Unlock()
}

// uncache withdraws a failed entry from the cache (the entry's ready channel
// still closes, so coalesced waiters observe the failed result once).
func (r *Runner) uncache(k key, e *entry) {
	r.mu.Lock()
	if r.cache[k] == e {
		delete(r.cache, k)
		r.obs.uncached.Inc()
	}
	r.mu.Unlock()
}

// execute runs a request with panic recovery, the per-attempt watchdog, and
// bounded retry for transient failures.
func (r *Runner) execute(ctx context.Context, req Request) Result {
	maxAttempts := max(r.policy.MaxAttempts, 1)
	var res Result
	for attempt := 1; ; attempt++ {
		res = r.attempt(ctx, req)
		res.Attempts = attempt
		if res.Err == nil || !IsTransient(res.Err) ||
			attempt >= maxAttempts || ctx.Err() != nil {
			return res
		}
		r.obs.retries.Inc()
		next := attempt + 1
		r.publish(progress.KindSimRetried, req, func(ev *progress.Event) {
			ev.Attempt = next
			ev.Err = res.Err.Error()
		})
		if d := retryDelay(r.policy.Backoff, attempt, req); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return res
			}
		}
	}
}

// attempt is one guarded execution: panics become a transient *PanicError,
// and the policy watchdog bounds wall-clock time via a context deadline the
// simulation polls cooperatively.
func (r *Runner) attempt(ctx context.Context, req Request) (res Result) {
	actx := ctx
	if r.policy.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.policy.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			r.obs.panics.Inc()
			res = Result{Err: &PanicError{Value: p, Stack: debug.Stack()}}
		}
	}()
	if r.trackEvery > 0 && r.obs.tracer != nil {
		res = req.runCtx(actx, simobs.SampleOption(req.Cfg, r.obs.tracer, r.trackEvery, req.SMT))
	} else {
		res = req.runCtx(actx)
	}
	if res.Sampling != nil {
		r.obs.samplingIntervals.Add(uint64(res.Sampling.Intervals))
		r.obs.samplingSimulated.Add(res.Sampling.SimulatedInsts)
		r.obs.samplingSpeedup.Set(res.Sampling.Speedup())
	}
	switch {
	case errors.Is(res.Err, context.DeadlineExceeded):
		r.obs.timeouts.Inc()
	case errors.Is(res.Err, context.Canceled):
		r.obs.cancels.Inc()
	}
	return res
}

// retryDelay computes the backoff before retry #attempt: exponential in the
// attempt number, capped at 16x base, with deterministic jitter in
// [d/2, d) derived from the request identity — reproducible sweeps, no
// thundering herd.
func retryDelay(base time.Duration, attempt int, req Request) time.Duration {
	if base <= 0 {
		return 0
	}
	d := min(base<<(attempt-1), 16*base)
	h := fnv.New64a()
	if req.W != nil {
		h.Write([]byte(req.W.Name))
	}
	if req.Cfg != nil {
		h.Write([]byte(req.Cfg.Name))
	}
	h.Write([]byte{byte(attempt), byte(req.SMT)})
	frac := float64(h.Sum64()%1024) / 1024
	half := d / 2
	return half + time.Duration(float64(half)*frac)
}

// Label names the simulation as "workload@config/smtN": the runner's trace
// spans and progress events (prefixed "sim:") and the fabric's work units
// use it. Nil config/workload (unkeyable requests) render as "?" instead of
// panicking, since the progress path also labels uncacheable executions.
func (req Request) Label() string {
	w, c := "?", "?"
	if req.W != nil {
		w = req.W.Name
	}
	if req.Cfg != nil {
		c = req.Cfg.Name
	}
	return w + "@" + c + "/smt" + strconv.Itoa(max(req.SMT, 1))
}

// RunAll fans the requests out across the pool and returns their results in
// request order. Identical requests — within the batch or across batches —
// are simulated once.
func (r *Runner) RunAll(reqs []Request) []Result { return r.RunAllCtx(r.base, reqs) }

// RunAllCtx is RunAll under an explicit context: cancellation aborts queued
// and in-flight simulations cooperatively and the remaining results carry
// cancellation errors.
func (r *Runner) RunAllCtx(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if cap(r.sem) == 1 {
		// Serial fast path: no goroutines, identical observable behavior.
		for i := range reqs {
			out[i] = r.DoCtx(ctx, reqs[i])
		}
		return out
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = r.DoCtx(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines. It is the generic fan-out primitive for loops that RunAll does
// not fit: bodies that do not go through the runner (the socket Monte Carlo,
// proxy extraction, surrogate training's targets and calibration folds) and
// the fabric worker's leased units, each decoded and timed around its run.
// workers <= 0 selects GOMAXPROCS. fn must be safe to call concurrently and
// must write only to its own index's state.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
