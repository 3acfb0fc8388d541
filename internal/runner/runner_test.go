package runner

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"power10sim/internal/isa"
	"power10sim/internal/sampling"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// testRequest builds a small representative request.
func testRequest(cfg *uarch.Config, w *workloads.Workload, smt int) Request {
	budget := uint64(6000) / uint64(smt)
	return Request{Cfg: cfg, W: w, SMT: smt, Budget: budget, Warmup: 500, MaxCycles: 10_000_000}
}

func TestRunMatchesDirectSimulation(t *testing.T) {
	w := workloads.Compress()
	req := testRequest(uarch.POWER10(), w, 1)
	direct := req.runCtx(context.Background())
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}
	r := New(2)
	got := r.Do(req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !reflect.DeepEqual(direct.Activity, got.Activity) {
		t.Error("runner activity differs from direct simulation")
	}
	if !reflect.DeepEqual(direct.Report, got.Report) {
		t.Error("runner report differs from direct simulation")
	}
}

func TestCacheDedupesIdenticalRequests(t *testing.T) {
	r := New(4)
	// Two distinct workload constructions with identical content must share
	// one simulation: the cache keys on program content, not pointers.
	// Daxpy builds a fresh program on every call.
	reqs := []Request{
		testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 1),
		testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 1),
		testRequest(uarch.POWER9(), workloads.Daxpy(4096, 12), 1),
		testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 2),
	}
	if reqs[0].W.Prog == reqs[1].W.Prog {
		t.Fatal("Daxpy returned one program twice; the test needs separate builds")
	}
	results := r.RunAll(reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	st := r.Stats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (P10/ST shared, P9 and SMT2 distinct)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	if !reflect.DeepEqual(results[0].Activity, results[1].Activity) {
		t.Error("deduped requests returned different activities")
	}
	// Cached results must be private copies: mutating one caller's view
	// must not leak into another's.
	results[0].Activity.Cycles = 0
	results[0].Report.Components[0] = -1
	again := r.Do(reqs[0])
	if again.Activity.Cycles == 0 {
		t.Error("cache entry aliased a returned Activity")
	}
	if again.Report.Components[0] == -1 {
		t.Error("cache entry aliased a returned Report")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The same batch through a 1-worker and a many-worker runner must be
	// element-wise identical — the determinism the memoization and the
	// byte-identical sweep output rest on.
	build := func() []Request {
		suite := workloads.SPECintSuite()[:3]
		p9, p10 := uarch.POWER9(), uarch.POWER10()
		var reqs []Request
		for _, w := range suite {
			reqs = append(reqs, testRequest(p9, w, 1), testRequest(p10, w, 1), testRequest(p10, w, 2))
		}
		return reqs
	}
	serial := New(1).RunAll(build())
	parallel := New(8).RunAll(build())
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("request %d: serial err %v, parallel err %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Activity, parallel[i].Activity) {
			t.Errorf("request %d: activity differs between serial and parallel", i)
		}
		if !reflect.DeepEqual(serial[i].Report, parallel[i].Report) {
			t.Errorf("request %d: report differs between serial and parallel", i)
		}
	}
}

func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	// Hammer one key from many goroutines: exactly one simulation must run
	// (misses == 1) and every caller must observe the same result.
	r := New(4)
	w := workloads.Compress()
	cfg := uarch.POWER10()
	const callers = 16
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Do(testRequest(cfg, w, 1))
		}(i)
	}
	wg.Wait()
	st := r.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0].Activity, results[i].Activity) {
			t.Fatalf("caller %d saw a different activity", i)
		}
	}
}

// TestKeyedProgramIsFreed: keying a program must not keep it alive. The
// named workloads are shared, but every size-parameterised kernel (the GEMMs,
// daxpy) is built afresh per call, so a key path that held on to the
// programs it saw would grow with every kernel a sweep builds.
func TestKeyedProgramIsFreed(t *testing.T) {
	const programs = 8
	freed := make(chan struct{}, programs) // one send per program
	for i := 0; i < programs; i++ {
		w := workloads.Daxpy(4096, 12) // fresh per call, with a data image
		runtime.SetFinalizer(w.Prog, func(*isa.Program) { freed <- struct{}{} })
		if _, ok := ContentKey(testRequest(uarch.POWER10(), w, 1)); !ok {
			t.Fatal("request is unkeyable")
		}
	}
	// Finalizers run on their own goroutine after the collection that
	// finds a program unreachable; collect again whenever none arrives.
	const maxGCs = 20
	got, gcs := 0, 0
	for got < programs && gcs < maxGCs {
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
			runtime.GC()
			gcs++
		}
	}
	if got != programs {
		t.Fatalf("%d of %d keyed programs were freed after %d GCs", got, programs, gcs)
	}
}

func TestKeyDistinguishesConfigAndParams(t *testing.T) {
	w := workloads.Compress()
	base, _ := keyOf(testRequest(uarch.POWER10(), w, 1))
	cases := map[string]Request{
		"config": testRequest(uarch.POWER9(), w, 1),
		"smt":    testRequest(uarch.POWER10(), w, 2),
	}
	budget := testRequest(uarch.POWER10(), w, 1)
	budget.Budget++
	cases["budget"] = budget
	warm := testRequest(uarch.POWER10(), w, 1)
	warm.Warmup++
	cases["warmup"] = warm
	for name, req := range cases {
		k, ok := keyOf(req)
		if !ok {
			t.Fatalf("%s: unkeyable", name)
		}
		if k == base {
			t.Errorf("%s variation did not change the key", name)
		}
	}
	if _, ok := keyOf(Request{}); ok {
		t.Error("empty request should be unkeyable")
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		seen := make([]int32, n)
		ForEach(workers, n, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	// n <= 0 must be a no-op.
	ForEach(4, 0, func(int) { t.Fatal("called for n=0") })
}

func TestStatsQueueAndPeak(t *testing.T) {
	r := New(2)
	var reqs []Request
	p9, p10 := uarch.POWER9(), uarch.POWER10()
	for _, w := range workloads.SPECintSuite()[:3] {
		reqs = append(reqs, testRequest(p9, w, 1), testRequest(p10, w, 1))
	}
	for i, res := range r.RunAll(reqs) {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	st := r.Stats()
	if st.PeakInFlight < 1 || st.PeakInFlight > 2 {
		t.Errorf("peak in-flight = %d, want within [1, workers=2]", st.PeakInFlight)
	}
	if st.QueueWait < 0 {
		t.Errorf("queue wait = %v, want >= 0", st.QueueWait)
	}
}

func TestInstrumentedRunnerMetricsMatchStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	r := New(4)
	r.Instrument(reg, tr)
	reqs := []Request{
		testRequest(uarch.POWER10(), workloads.Compress(), 1),
		testRequest(uarch.POWER10(), workloads.Compress(), 1), // dedupes
		testRequest(uarch.POWER9(), workloads.Compress(), 1),
	}
	for i, res := range r.RunAll(reqs) {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	st := r.Stats()
	if got := reg.Counter("runner_cache_hits_total").Value(); got != st.Hits {
		t.Errorf("hits counter = %d, stats = %d", got, st.Hits)
	}
	if got := reg.Counter("runner_cache_misses_total").Value(); got != st.Misses {
		t.Errorf("misses counter = %d, stats = %d", got, st.Misses)
	}
	if got := reg.Histogram("runner_run_seconds", nil).Count(); got != st.Misses {
		t.Errorf("run-latency observations = %d, want one per miss (%d)", got, st.Misses)
	}
	if got := reg.Histogram("runner_queue_wait_seconds", nil).Count(); got != st.Misses {
		t.Errorf("queue-wait observations = %d, want one per miss (%d)", got, st.Misses)
	}
	if got := reg.Gauge("runner_inflight_peak").Value(); got != float64(st.PeakInFlight) {
		t.Errorf("peak gauge = %v, stats = %d", got, st.PeakInFlight)
	}
	if got := reg.Gauge("runner_workers_busy").Value(); got != 0 {
		t.Errorf("busy gauge = %v after drain, want 0", got)
	}
	// One span per executed simulation.
	if got, want := tr.Len(), int(st.Misses); got != want {
		t.Errorf("trace has %d events, want %d (one span per unique run)", got, want)
	}
}

// TestCycleTracksOnFullRunsOnly: SetCycleTracks adds counter tracks to an
// executed full simulation without changing its result; a cache hit and a
// sampled run add only what they add without tracks (nothing, one span).
func TestCycleTracksOnFullRunsOnly(t *testing.T) {
	w := workloads.Daxpy(512, 24)
	full := Request{Cfg: uarch.POWER10(), W: w, SMT: 1, Budget: w.Budget,
		Warmup: w.Warmup, MaxCycles: 10_000_000}
	spec := sampling.DefaultSpec()
	sampled := full
	sampled.Sample = &spec

	tr := telemetry.NewTracer()
	r := New(1)
	r.Instrument(nil, tr)
	r.SetCycleTracks(500)
	tracked := r.Do(full)
	if tracked.Err != nil {
		t.Fatal(tracked.Err)
	}
	n := tr.Len()
	if n <= 1 {
		t.Fatalf("full run recorded %d trace events, want its span plus counter samples", n)
	}
	plain := New(1).Do(full)
	if !reflect.DeepEqual(tracked.Activity, plain.Activity) {
		t.Error("cycle tracks changed the simulated activity")
	}
	r.Do(full)
	if got := tr.Len(); got != n {
		t.Errorf("cache hit added %d trace events, want 0", got-n)
	}
	if res := r.Do(sampled); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := tr.Len(); got != n+1 {
		t.Errorf("sampled run added %d trace events, want 1 (its span)", got-n)
	}
}

func TestUninstrumentedRunnerUnchanged(t *testing.T) {
	// The zero-telemetry path must behave exactly as before: this re-runs
	// the dedup scenario on a bare runner and checks nothing panics and
	// stats still add up (the nil-safe metric handles are exercised).
	r := New(2)
	res := r.Do(testRequest(uarch.POWER10(), workloads.Compress(), 1))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	res = r.Do(testRequest(uarch.POWER10(), workloads.Compress(), 1))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestErrorsAreCachedAndReported(t *testing.T) {
	r := New(2)
	w := workloads.Compress()
	bad := Request{Cfg: uarch.POWER10(), W: w, SMT: 99, Budget: 100, Warmup: 0, MaxCycles: 1000}
	first := r.Do(bad)
	if first.Err == nil {
		t.Fatal("SMT99 request unexpectedly succeeded")
	}
	second := r.Do(bad)
	if second.Err == nil || second.Err.Error() != first.Err.Error() {
		t.Error("cached error differs from first occurrence")
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}
}
