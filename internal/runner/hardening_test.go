package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"power10sim/internal/isa"
	"power10sim/internal/sampling"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// chaosRequest builds a request carrying a forced-failure spec.
func chaosRequest(spec *ChaosSpec) Request {
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.Chaos = spec
	return req
}

func TestPanicRecoveredNotCached(t *testing.T) {
	// A panicking first attempt must surface as a PanicError, stay out of
	// the cache, and be re-executed (successfully) by the next identical Do.
	r := New(2)
	spec := &ChaosSpec{PanicFirst: 1}
	first := r.Do(chaosRequest(spec))
	var pe *PanicError
	if !errors.As(first.Err, &pe) {
		t.Fatalf("first result err = %v, want *PanicError", first.Err)
	}
	if !IsTransient(first.Err) {
		t.Error("panic result not classified transient")
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
	second := r.Do(chaosRequest(spec))
	if second.Err != nil {
		t.Fatalf("second attempt failed: %v", second.Err)
	}
	if got := spec.Execs(); got != 2 {
		t.Errorf("chaos executions = %d, want 2 (failure was re-executed, not served from cache)", got)
	}
	st := r.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses / 0 hits", st)
	}
	if st.Panics != 1 || st.Uncached != 1 {
		t.Errorf("stats = %+v, want 1 panic recovered and 1 uncached result", st)
	}
	// The eventual success is cached normally.
	third := r.Do(chaosRequest(spec))
	if third.Err != nil || r.Stats().Hits != 1 {
		t.Errorf("success after transient failure was not cached (err=%v, stats=%+v)", third.Err, r.Stats())
	}
}

func TestRetryClearsTransientFailures(t *testing.T) {
	// With retries enabled, a panic plus a tagged transient error must be
	// absorbed inside one Do: the caller sees only the final success.
	r := New(2)
	r.SetPolicy(Policy{MaxAttempts: 3, Backoff: time.Microsecond})
	spec := &ChaosSpec{PanicFirst: 1, FailFirst: 1}
	res := r.Do(chaosRequest(spec))
	if res.Err != nil {
		t.Fatalf("request failed despite retry budget: %v", res.Err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (panic, transient, success)", res.Attempts)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Panics != 1 {
		t.Errorf("stats = %+v, want 2 retries / 1 panic", st)
	}
	// Exhausted retry budget surfaces the transient error.
	r2 := New(2)
	r2.SetPolicy(Policy{MaxAttempts: 2})
	res2 := r2.Do(chaosRequest(&ChaosSpec{FailFirst: 5}))
	if !IsTransient(res2.Err) {
		t.Fatalf("err = %v, want transient after exhausting retries", res2.Err)
	}
	if res2.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res2.Attempts)
	}
}

func TestWatchdogAbortsHangs(t *testing.T) {
	// A hanging execution must be cut off by the per-attempt watchdog,
	// classified transient (so it is retried and never cached), and must not
	// leak: the hang blocks on the attempt context, which the watchdog
	// cancels.
	r := New(2)
	r.SetPolicy(Policy{Timeout: 20 * time.Millisecond, MaxAttempts: 2})
	spec := &ChaosSpec{Hang: true}
	start := time.Now()
	res := r.Do(chaosRequest(spec))
	if res.Err == nil {
		t.Fatal("hanging request unexpectedly succeeded")
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", res.Err)
	}
	if !IsTransient(res.Err) {
		t.Error("watchdog timeout not classified transient")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v, want prompt abort", elapsed)
	}
	st := r.Stats()
	if st.Timeouts != 2 {
		t.Errorf("timeouts = %d, want 2 (both attempts hung)", st.Timeouts)
	}
	if st.Uncached != 1 {
		t.Errorf("uncached = %d, want 1 (timeout withheld from cache)", st.Uncached)
	}
}

func TestWatchdogAbortsWedgedSimulation(t *testing.T) {
	// The watchdog must also cut off a real simulation that stops making
	// progress — not just chaos hooks. A self-dependency upset wedges the
	// ROB; with a tiny no-progress window that would take 100k cycles to
	// detect, the wall-clock watchdog fires first via the cooperative
	// context poll in the cycle loop.
	r := New(1)
	r.SetPolicy(Policy{Timeout: 30 * time.Millisecond})
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.MaxCycles = 2_000_000_000 // far beyond the watchdog horizon
	req.Upset = &uarch.Upset{Cycle: 1000, Target: uarch.UpsetDep}
	res := r.Do(req)
	if res.Err == nil {
		t.Fatal("wedged simulation unexpectedly completed")
	}
	// Either the watchdog fires (deadline) or the no-progress detector wins
	// the race; both are acceptable terminations, neither may hang the test.
	var hang *uarch.HangError
	if !errors.Is(res.Err, context.DeadlineExceeded) && !errors.As(res.Err, &hang) {
		t.Errorf("err = %v, want DeadlineExceeded or HangError", res.Err)
	}
}

func TestCancellationNotCached(t *testing.T) {
	r := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	res := r.DoCtx(ctx, req)
	if res.Err == nil {
		t.Fatal("request under canceled context unexpectedly succeeded")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", res.Err)
	}
	// A fresh request after cancellation must re-execute and succeed.
	res2 := r.Do(req)
	if res2.Err != nil {
		t.Fatalf("request after cancellation failed: %v", res2.Err)
	}
	if st := r.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (canceled result was not cached)", st.Misses)
	}
}

func TestRunnerContextCancelsBatch(t *testing.T) {
	// SetContext threads cancellation through Do/RunAll: with the base
	// context already canceled, every point fails with a cancellation error
	// and nothing is cached.
	r := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	reqs := []Request{
		testRequest(uarch.POWER10(), workloads.Compress(), 1),
		testRequest(uarch.POWER9(), workloads.Compress(), 1),
	}
	for i, res := range r.RunAll(reqs) {
		if res.Err == nil {
			t.Fatalf("request %d succeeded under canceled base context", i)
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
	r.SetContext(nil) // resets to Background
	if res := r.Do(reqs[0]); res.Err != nil {
		t.Fatalf("request after context reset failed: %v", res.Err)
	}
}

func TestDeterministicErrorsStayCached(t *testing.T) {
	// The poisoning guard must not overreach: a deterministic simulation
	// error (invalid SMT width) is a property of the request and stays
	// memoized.
	r := New(2)
	bad := Request{Cfg: uarch.POWER10(), W: workloads.Compress(), SMT: 99, Budget: 100, MaxCycles: 1000}
	first := r.Do(bad)
	if first.Err == nil {
		t.Fatal("SMT99 request unexpectedly succeeded")
	}
	if IsTransient(first.Err) {
		t.Errorf("deterministic error misclassified transient: %v", first.Err)
	}
	second := r.Do(bad)
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Uncached != 0 {
		t.Errorf("stats = %+v, want deterministic error served from cache", st)
	}
	if second.Err == nil || second.Err.Error() != first.Err.Error() {
		t.Error("cached deterministic error differs from first occurrence")
	}
}

func TestUpsetJoinsCacheKey(t *testing.T) {
	// A request with an upset must not collide with the clean run (or with a
	// different upset) in the cache.
	clean := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	u1, u2 := clean, clean
	u1.Upset = &uarch.Upset{Cycle: 100, Target: uarch.UpsetEA, Bit: 3}
	u2.Upset = &uarch.Upset{Cycle: 100, Target: uarch.UpsetEA, Bit: 4}
	kc, _ := keyOf(clean)
	k1, _ := keyOf(u1)
	k2, _ := keyOf(u2)
	if kc == k1 || k1 == k2 {
		t.Error("upset parameters do not distinguish cache keys")
	}
	// Same upset value through distinct pointers must share an entry.
	u3 := clean
	u3.Upset = &uarch.Upset{Cycle: 100, Target: uarch.UpsetEA, Bit: 3}
	if k3, _ := keyOf(u3); k3 != k1 {
		t.Error("identical upset values keyed differently")
	}
}

func TestPolicyDoesNotPerturbResults(t *testing.T) {
	// Enabling the watchdog and retry machinery must not change what a
	// healthy simulation computes: byte-identical sweeps depend on it.
	req := testRequest(uarch.POWER10(), workloads.Compress(), 2)
	plain := New(1).Do(req)
	hardened := New(1)
	hardened.SetPolicy(Policy{Timeout: time.Minute, MaxAttempts: 3, Backoff: time.Millisecond})
	guarded := hardened.Do(req)
	if plain.Err != nil || guarded.Err != nil {
		t.Fatalf("errs: %v / %v", plain.Err, guarded.Err)
	}
	if !reflect.DeepEqual(plain.Activity, guarded.Activity) {
		t.Error("policy changed simulation activity")
	}
	if !reflect.DeepEqual(plain.Report, guarded.Report) {
		t.Error("policy changed power report")
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := retryDelay(base, attempt, req)
		d2 := retryDelay(base, attempt, req)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < base/2 || d1 > 16*base {
			t.Errorf("attempt %d: delay %v outside [base/2, 16*base]", attempt, d1)
		}
	}
	if retryDelay(0, 3, req) != 0 {
		t.Error("zero base must retry immediately")
	}
}

func TestChaosTelemetryAccountsFailures(t *testing.T) {
	// Every recovery action must be visible in the metrics registry: a sweep
	// that hit panics, retries, timeouts and uncached results exposes them.
	reg := telemetry.NewRegistry()
	r := New(2)
	r.Instrument(reg, nil)
	r.SetPolicy(Policy{Timeout: 20 * time.Millisecond, MaxAttempts: 2, Backoff: time.Microsecond})
	r.Do(chaosRequest(&ChaosSpec{PanicFirst: 1})) // panic then success
	r.Do(chaosRequest(&ChaosSpec{Hang: true}))    // two timeouts
	r.Do(chaosRequest(&ChaosSpec{FailFirst: 5}))  // transient exhaustion
	st := r.Stats()
	checks := map[string]uint64{
		"runner_retries_total":           st.Retries,
		"runner_panics_recovered_total":  st.Panics,
		"runner_watchdog_timeouts_total": st.Timeouts,
		"runner_uncached_errors_total":   st.Uncached,
	}
	for name, want := range checks {
		if want == 0 {
			t.Errorf("scenario produced no %s events; test lost coverage", name)
		}
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
}

// TestFunctionalFaultFailsFullRun: a program whose VM faults mid-run fails
// its request on the full path, as it does on the sampled one, instead of
// reporting the instructions retired before the fault as a complete run.
// Fabric workers run wire-decoded programs whose indirect targets no static
// check can bound. The fault comes after the functional front end's first
// 4,096-record block.
func TestFunctionalFaultFailsFullRun(t *testing.T) {
	b := isa.NewBuilder("boom").Li(isa.GPR(3), 9999)
	for i := 0; i < 5000; i++ {
		b.Addi(isa.GPR(1), isa.GPR(1), 1)
	}
	w := &workloads.Workload{Name: "boom", Prog: b.Br(isa.GPR(3)).Halt().MustBuild(), Budget: 10_000}
	const fault = "boom @5001: indirect target 9999 out of range"
	spec := sampling.DefaultSpec()
	for _, sample := range []*sampling.Spec{nil, &spec} {
		req := Request{Cfg: uarch.POWER10(), W: w, SMT: 1, Budget: w.Budget, MaxCycles: 1_000_000, Sample: sample}
		if res := New(1).Do(req); res.Err == nil || !strings.Contains(res.Err.Error(), fault) {
			t.Errorf("sampled=%v: err = %v, want one naming %q", sample != nil, res.Err, fault)
		}
	}
}

// canceledAtPoll reads as canceled only when polled: its Done channel stays
// open, so the runner takes a worker slot and starts the simulation, whose
// first poll then cancels it.
type canceledAtPoll struct{ context.Context }

func (canceledAtPoll) Err() error { return context.Canceled }

// TestFullRunStopsItsFrontEnd: a full run reads each thread through a
// read-ahead stream whose VM runs on its own goroutine. A canceled run and
// a run over its strict cycle limit both end before their streams do, and
// must leave no such goroutine once DoCtx returns.
func TestFullRunStopsItsFrontEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A goroutine leaves the count just after the channel close its
		// reader sees, so wait for the count to come back.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 4)
	// Each thread's budget is far past what the read-ahead ring holds, so
	// its VM stays blocked until the stream is closed.
	req.Budget = 100_000
	if res := New(1).DoCtx(canceledAtPoll{ctx}, req); !errors.Is(res.Err, context.Canceled) {
		t.Errorf("canceled run: err = %v, want context.Canceled in chain", res.Err)
	}
	settled("canceled run")

	req.MaxCycles = 1000
	var hang *uarch.HangError
	if res := New(1).DoCtx(context.Background(), req); !errors.As(res.Err, &hang) {
		t.Errorf("cycle-limit run: err = %v, want a HangError", res.Err)
	}
	settled("cycle-limit run")
}
