package experiments

import (
	"reflect"
	"strings"
	"testing"

	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// The heavyweight experiments are exercised end to end by the repository's
// benchmark harness; these tests cover the cheap ones plus the shared
// plumbing so `go test` alone validates the experiment layer.

var quick = Options{Quick: true}

func TestScale(t *testing.T) {
	if got := quick.scale(100_000); got != 50_000 {
		t.Errorf("scale = %d", got)
	}
	if got := quick.scale(100); got != 4096 {
		t.Errorf("floor = %d", got)
	}
	if got := quick.scaleWarmup(0); got != 0 {
		t.Errorf("zero warmup scaled to %d", got)
	}
	full := Options{}
	if got := full.scale(100_000); got != 100_000 {
		t.Errorf("full scale = %d", got)
	}
}

// TestSimulationDeterminism is the precondition that makes the runner's
// memoization sound: the same (config, workload, SMT) point must produce
// bit-identical uarch activity and power reports on every run.
func TestSimulationDeterminism(t *testing.T) {
	for _, smt := range []int{1, 2} {
		// Rebuild the workload each time: determinism must hold across
		// independent constructions, not just reuse of one Program.
		o := Options{Quick: true, Runner: runner.New(1)}
		a1, r1, err := RunOn(uarch.POWER10(), workloads.Compress(), smt, o)
		if err != nil {
			t.Fatal(err)
		}
		o2 := Options{Quick: true, Runner: runner.New(1)}
		a2, r2, err := RunOn(uarch.POWER10(), workloads.Compress(), smt, o2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("SMT%d: activity differs between identical runs", smt)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("SMT%d: power report differs between identical runs", smt)
		}
	}
}

// TestRunOnSerialVsParallelPool checks the harness-level guarantee: routing
// the same request through a serial and a many-worker pool yields identical
// results.
func TestRunOnSerialVsParallelPool(t *testing.T) {
	serial := Options{Quick: true, Runner: runner.New(1)}
	par := Options{Quick: true, Runner: runner.New(8)}
	reqs := func(o Options) []runner.Request {
		return []runner.Request{
			o.request(uarch.POWER9(), workloads.Compress(), 1),
			o.request(uarch.POWER10(), workloads.Compress(), 1),
			o.request(uarch.POWER10(), workloads.Interp(), 2),
		}
	}
	rs, err := runBatch(serial, reqs(serial))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := runBatch(par, reqs(par))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if !reflect.DeepEqual(rs[i].Activity, rp[i].Activity) {
			t.Errorf("request %d: activity differs between pools", i)
		}
		if !reflect.DeepEqual(rs[i].Report, rp[i].Report) {
			t.Errorf("request %d: report differs between pools", i)
		}
	}
}

func TestFig2Experiment(t *testing.T) {
	r, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, tgt := range r.Targets {
		if r.Optima[i] != 27 {
			t.Errorf("target %.1f: optimum %d, want 27", tgt, r.Optima[i])
		}
	}
	if !strings.Contains(r.Table(), "27") {
		t.Error("table missing optimum")
	}
}

func TestFig5Experiment(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	vsuX := r.Rows[1].RelFlops
	mmaX := r.Rows[2].RelFlops
	if vsuX < 1.6 || vsuX > 2.4 {
		t.Errorf("P10 VSU speedup %.2f outside [1.6, 2.4] (paper 1.95)", vsuX)
	}
	if mmaX < 3.2 || mmaX > 6.0 {
		t.Errorf("P10 MMA speedup %.2f outside [3.2, 6.0] (paper 5.47)", mmaX)
	}
	if mmaX <= vsuX {
		t.Error("MMA did not beat VSU")
	}
	// Power ordering: both P10 codings below P9; MMA above P10-VSU.
	if r.Rows[1].RelPower >= 1 || r.Rows[2].RelPower >= 1 {
		t.Errorf("P10 power not below P9: VSU %.2f MMA %.2f", r.Rows[1].RelPower, r.Rows[2].RelPower)
	}
	if r.Rows[2].RelPower <= r.Rows[1].RelPower {
		t.Errorf("MMA power %.2f not above VSU %.2f (paper: -24%% vs -32%%)",
			r.Rows[2].RelPower, r.Rows[1].RelPower)
	}
}

func TestAPEXExperiment(t *testing.T) {
	r, err := APEXSpeedup(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 50 {
		t.Errorf("APEX speedup %.0f too small", r.Speedup)
	}
	rel := (r.OnTheFlyPower - r.ReferencePower) / r.ReferencePower
	if rel > 1e-9 || rel < -1e-9 {
		t.Errorf("fast path power %.6f != reference %.6f", r.OnTheFlyPower, r.ReferencePower)
	}
}

func TestProxyExperiment(t *testing.T) {
	r, err := ProxyStats(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalProxies < 15 {
		t.Errorf("%d proxies", r.TotalProxies)
	}
	if r.MaxSnippet > 22_000 {
		t.Errorf("snippet cap violated: %d", r.MaxSnippet)
	}
	if !strings.Contains(r.Table(), "TOTAL") {
		t.Error("table missing totals row")
	}
}

func TestFig13Fig14Experiments(t *testing.T) {
	r13, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r13.Reports) != 15 {
		t.Errorf("fig13 has %d rows, want 15 (12 synthetic + 3 spec)", len(r13.Reports))
	}
	r14, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, vt := range r14.VTs {
		if r14.P10.RuntimeDerating[vt] < r14.P9.RuntimeDerating[vt] {
			t.Errorf("VT=%d: P10 runtime derating below P9", vt)
		}
	}
	if r14.P10.StaticDerating >= r14.P9.StaticDerating {
		t.Error("P10 static derating not lower than P9")
	}
}

// TestTolerantSweepDegradesGracefully covers the graceful-degradation
// contract: with a FailureLog installed, a failing simulation point is logged
// and returned in place instead of aborting the batch, and partial figures
// render tagged rows.
func TestTolerantSweepDegradesGracefully(t *testing.T) {
	pool := runner.New(2)
	pool.SetPolicy(runner.Policy{MaxAttempts: 1})
	o := Options{Quick: true, Runner: pool, Failures: new(FailureLog)}
	good := o.request(uarch.POWER10(), workloads.Compress(), 1)
	bad := o.request(uarch.POWER10(), workloads.Interp(), 1)
	bad.Chaos = &runner.ChaosSpec{FailFirst: 1 << 30}
	results, err := runBatchTolerant(o, "test-sweep", []runner.Request{good, bad})
	if err != nil {
		t.Fatalf("tolerant batch aborted: %v", err)
	}
	if results[0].Err != nil {
		t.Errorf("healthy point failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("chaos point did not fail")
	}
	if o.Failures.Count() != 1 {
		t.Errorf("failure log has %d entries, want 1", o.Failures.Count())
	}
	if s := o.Failures.Summary(); !strings.Contains(s, "test-sweep") ||
		!strings.Contains(s, "interp") {
		t.Errorf("summary lacks context:\n%s", s)
	}

	// Strict mode (no log) keeps the legacy abort-on-first-error contract.
	strict := Options{Quick: true, Runner: pool}
	if _, err := runBatchTolerant(strict, "strict", []runner.Request{bad}); err == nil {
		t.Error("strict mode swallowed the failure")
	}

	// Partial figures render failed points as tagged rows.
	r13 := &Fig13Result{VTs: []int{10, 50, 90}, Failed: []string{"st_dd0_zero"}}
	if tab := r13.Table(); !strings.Contains(tab, "st_dd0_zero") || !strings.Contains(tab, "FAILED") {
		t.Errorf("Fig13 table missing tagged partial row:\n%s", tab)
	}
	r14 := &Fig14Result{VTs: nil, Failed: []string{"smt4_spec"}}
	if tab := r14.Table(); !strings.Contains(tab, "PARTIAL") || !strings.Contains(tab, "smt4_spec") {
		t.Errorf("Fig14 table missing partial notice:\n%s", tab)
	}

	// A nil log is inert (shared Options value passed around by copy).
	var nilLog *FailureLog
	nilLog.Add("x", err)
	if nilLog.Count() != 0 || nilLog.Summary() != "" {
		t.Error("nil FailureLog not inert")
	}
}

func TestTableHelper(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("x", "y")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "x") {
		t.Error("table rendering broken")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("table has wrong line count:\n%s", out)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
}

func TestFig6Experiment(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Models) != 2 {
		t.Fatalf("%d models", len(r.Models))
	}
	for _, m := range r.Models {
		if len(m.Rows) != 3 {
			t.Fatalf("%s: %d rows", m.Model, len(m.Rows))
		}
		noMMA, mma := m.Rows[1].Speedup, m.Rows[2].Speedup
		if noMMA <= 1.3 || noMMA >= 3.5 {
			t.Errorf("%s no-MMA speedup %.2f outside [1.3, 3.5] (paper ~2.1-2.25)", m.Model, noMMA)
		}
		if mma <= noMMA {
			t.Errorf("%s: MMA speedup %.2f <= no-MMA %.2f", m.Model, mma, noMMA)
		}
		if m.Rows[2].TotalInsts >= 0.9 {
			t.Errorf("%s: MMA did not shrink instruction count (%.2f)", m.Model, m.Rows[2].TotalInsts)
		}
	}
	// BERT gains more from the MMA; ResNet more from the core (Fig. 6).
	if r.Models[1].Rows[2].Speedup <= r.Models[0].Rows[2].Speedup-0.8 {
		t.Errorf("BERT MMA speedup unexpectedly far below ResNet")
	}
	if r.SocketFP32["ResNet-50"] < 5 || r.SocketFP32["ResNet-50"] > 14 {
		t.Errorf("socket FP32 %.1fx outside plausible band", r.SocketFP32["ResNet-50"])
	}
	if r.SocketINT8["ResNet-50"] <= r.SocketFP32["ResNet-50"] {
		t.Error("INT8 socket estimate not above FP32")
	}
	if !strings.Contains(r.Table(), "socket") {
		t.Error("table missing socket rows")
	}
}

func TestSocketExperiment(t *testing.T) {
	r, err := Socket(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.CLY15of16 <= r.CLY16of16 {
		t.Errorf("core sparing did not improve yield: %.2f vs %.2f", r.CLY15of16, r.CLY16of16)
	}
	if r.SortLight <= r.SortHeavy {
		t.Errorf("WOF spread missing: light %.2f <= heavy %.2f", r.SortLight, r.SortHeavy)
	}
	if r.Efficiency.Gain < 1.8 || r.Efficiency.Gain > 4.5 {
		t.Errorf("socket efficiency %.2fx outside [1.8, 4.5]", r.Efficiency.Gain)
	}
	if !strings.Contains(r.Table(), "CLY") {
		t.Error("table missing CLY rows")
	}
}
