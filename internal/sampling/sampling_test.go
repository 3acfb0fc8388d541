package sampling

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"power10sim/internal/isa"
	"power10sim/internal/power"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestExtrapolatorScales checks weighted accumulation and rounding.
func TestExtrapolatorScales(t *testing.T) {
	var a uarch.Activity
	a.Cycles = 100
	a.Instructions = 50
	a.Flops = 7
	var e extrapolator
	e.add(&a, 1.5)
	e.add(&a, 0.5)
	got := e.round()
	if got.Cycles != 200 || got.Instructions != 100 || got.Flops != 14 {
		t.Fatalf("got cycles=%d insts=%d flops=%d, want 200/100/14",
			got.Cycles, got.Instructions, got.Flops)
	}
}

func TestStratifiedCI(t *testing.T) {
	// Constant samples: exact mean, zero uncertainty.
	mean, half := stratifiedCI([]stratum{{weight: 1, total: 10, xs: []float64{2, 2, 2}}})
	if mean != 2 || half != 0 {
		t.Fatalf("constant metrics: mean=%v half=%v, want 2, 0", mean, half)
	}
	// Dispersed samples from a partially covered stratum: positive CI.
	mean, half = stratifiedCI([]stratum{{weight: 1, total: 10, xs: []float64{1, 3}}})
	if math.Abs(mean-2) > 1e-12 || half <= 0 {
		t.Fatalf("dispersed metrics: mean=%v half=%v, want mean 2 and half > 0", mean, half)
	}
	// Full coverage: finite-population correction zeroes the uncertainty
	// even with dispersed samples.
	if _, h := stratifiedCI([]stratum{{weight: 1, total: 2, xs: []float64{1, 3}}}); h != 0 {
		t.Fatalf("fully simulated stratum must report zero half-width, got %v", h)
	}
	// Single-sample stratum: no estimable dispersion.
	if _, h := stratifiedCI([]stratum{{weight: 1, total: 5, xs: []float64{5}}}); h != 0 {
		t.Fatalf("single sample must report zero half-width, got %v", h)
	}
	// Two strata combine by weight.
	mean, _ = stratifiedCI([]stratum{
		{weight: 0.75, total: 4, xs: []float64{4}},
		{weight: 0.25, total: 4, xs: []float64{8}},
	})
	if math.Abs(mean-5) > 1e-12 {
		t.Fatalf("weighted combination: mean=%v, want 5", mean)
	}
}

// TestBuildPlanDeterministic: same trace + spec => identical plan.
func TestBuildPlanDeterministic(t *testing.T) {
	w := workloads.Daxpy(512, 8)
	a, err := BuildPlan(w.Prog, w.Budget, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(w.Prog, w.Budget, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildPlan is not deterministic")
	}
	if a.K() < 1 || a.K() > a.Spec.MaxK {
		t.Fatalf("k = %d outside [1, %d]", a.K(), a.Spec.MaxK)
	}
	var insts uint64
	for _, c := range a.Clusters {
		insts += c.Insts
		rep := a.Intervals[c.Rep]
		if rep.Cluster < 0 || rep.Cluster >= a.K() {
			t.Fatalf("representative %d assigned to cluster %d of %d", c.Rep, rep.Cluster, a.K())
		}
	}
	if insts != a.TotalInsts {
		t.Fatalf("cluster insts sum %d != trace length %d", insts, a.TotalInsts)
	}
}

func TestBuildPlanEmptyTrace(t *testing.T) {
	w := workloads.Daxpy(64, 1)
	if _, err := BuildPlan(w.Prog, 0, DefaultSpec()); err == nil {
		t.Fatal("zero-budget plan should fail with an empty-trace error")
	}
}

// TestBuildPlanRejectsOversizedSpec: the signature width sizes every
// interval's feature vector, so a spec decoded from the wire must not be
// able to ask for an unbounded one.
func TestBuildPlanRejectsOversizedSpec(t *testing.T) {
	w := workloads.Daxpy(64, 1)
	spec := DefaultSpec()
	spec.SignatureDims = 1 << 17
	if _, err := BuildPlan(w.Prog, w.Budget, spec); err == nil {
		t.Fatal("plan built with a 1<<17-bucket signature")
	}
}

// TestRunSingleIntervalMatchesFull: when the whole trace fits in one
// interval, the sampled run times every instruction and the estimate must
// reproduce the full simulation exactly.
func TestRunSingleIntervalMatchesFull(t *testing.T) {
	w := workloads.Daxpy(64, 2)
	cfg := uarch.POWER10()
	spec := DefaultSpec()
	spec.IntervalInsts = 1 << 30 // one interval covers everything
	est, err := Run(cfg, w.Prog, w.Budget, 0, 1, 10_000_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	if est.Meta.K != 1 || est.Meta.Intervals != 1 {
		t.Fatalf("expected a single interval/cluster, got %d/%d", est.Meta.Intervals, est.Meta.K)
	}
	full, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if est.Activity != full.Activity {
		t.Fatalf("degenerate sampled activity differs from full run:\nsampled CPI %.4f cycles %d\nfull    CPI %.4f cycles %d",
			est.Activity.CPI(), est.Activity.Cycles, full.Activity.CPI(), full.Activity.Cycles)
	}
}

// TestRunErrorBounds: the headline contract on a real kernel — the sampled
// estimate's CPI and average power land within the validation bounds of the
// full run, and the run actually times fewer instructions than it covers.
func TestRunErrorBounds(t *testing.T) {
	// Long enough (hundreds of intervals) that the adaptive sample converges
	// well short of full coverage; the speedup assertion is meaningless on
	// traces a few intervals long, where sampling degenerates to full runs.
	w := workloads.Daxpy(4096, 160)
	for _, smt := range []int{1, 4} {
		cfg := uarch.POWER10()
		est, err := Run(cfg, w.Prog, w.Budget, 0, smt, 40_000_000, DefaultSpec())
		if err != nil {
			t.Fatalf("smt%d: %v", smt, err)
		}
		streams := make([]trace.Stream, smt)
		for i := range streams {
			streams[i] = trace.NewVMStream(w.Prog, w.Budget)
		}
		full, err := uarch.Simulate(cfg, streams, 40_000_000)
		if err != nil {
			t.Fatalf("smt%d: %v", smt, err)
		}
		model := power.NewModel(cfg)
		fullPow := model.Report(&full.Activity).Total
		cpiErr := relErr(est.Activity.CPI(), full.Activity.CPI())
		powErr := relErr(est.Meta.AvgPower, fullPow)
		t.Logf("smt%d: cpi %.4f vs %.4f (%.2f%%), power %.2f vs %.2f (%.2f%%), speedup %.1fx",
			smt, est.Activity.CPI(), full.Activity.CPI(), 100*cpiErr,
			est.Meta.AvgPower, fullPow, 100*powErr, est.Meta.Speedup())
		if cpiErr > CPIErrBound {
			t.Errorf("smt%d: CPI error %.2f%% exceeds %.0f%%", smt, 100*cpiErr, 100*CPIErrBound)
		}
		if powErr > PowerErrBound {
			t.Errorf("smt%d: power error %.2f%% exceeds %.0f%%", smt, 100*powErr, 100*PowerErrBound)
		}
		if est.Meta.Speedup() <= 1 {
			t.Errorf("smt%d: no effective speedup (%.2fx)", smt, est.Meta.Speedup())
		}
		if est.Activity.Instructions != full.Activity.Instructions {
			t.Errorf("smt%d: extrapolated instructions %d != full %d",
				smt, est.Activity.Instructions, full.Activity.Instructions)
		}
	}
}

// TestRunWarmupROI: a sampled run with a measurement warmup must estimate
// the same region of interest a full run measures under uarch.WithWarmup.
func TestRunWarmupROI(t *testing.T) {
	w := workloads.Daxpy(4096, 12)
	cfg := uarch.POWER10()
	est, err := Run(cfg, w.Prog, w.Budget, w.Warmup, 1, 40_000_000, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	full, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
		40_000_000, uarch.WithWarmup(w.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	if cpiErr := relErr(est.Activity.CPI(), full.Activity.CPI()); cpiErr > CPIErrBound {
		t.Errorf("ROI CPI error %.2f%% exceeds %.0f%% (sampled %.4f, full %.4f)",
			100*cpiErr, 100*CPIErrBound, est.Activity.CPI(), full.Activity.CPI())
	}
	// The full run's warmup boundary quantizes to a retire group, so the
	// measured instruction counts may differ by a few instructions.
	diff := int64(est.Activity.Instructions) - int64(full.Activity.Instructions)
	if diff < -64 || diff > 64 {
		t.Errorf("ROI coverage %d too far from full measured instructions %d",
			est.Activity.Instructions, full.Activity.Instructions)
	}
	if _, err := Run(cfg, w.Prog, w.Budget, w.Budget, 1, 40_000_000, DefaultSpec()); err == nil {
		t.Error("warmup consuming the whole trace should fail")
	}
}

// panicCtx is a context whose Err panics: the first window simulation to
// poll it panics with ctxPanic.
type panicCtx struct{ context.Context }

type panicValue struct{ why string }

var ctxPanic = &panicValue{"context Err exploded"}

func (panicCtx) Err() error { panic(ctxPanic) }

// TestRunFailurePaths: a canceled run, a panicking window, windows over
// their cycle limit, a failed functional pass and a panicking VM each end
// cleanly. Run and BuildPlan return the error, or panic on the caller's
// goroutine with the original value. Afterwards no goroutine they started is
// left and no core slot is held.
func TestRunFailurePaths(t *testing.T) {
	w := workloads.Daxpy(4096, 12)
	cfg := uarch.POWER10()
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A goroutine leaves the count just after the event its waiter
		// sees, so wait for the count to come back.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
		cores.mu.Lock()
		held := cores.held
		cores.mu.Unlock()
		if held != 0 {
			t.Fatalf("%s: %d core slots still held", what, held)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(cfg, w.Prog, w.Budget, w.Warmup, 2, 40_000_000, DefaultSpec(), uarch.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run: err = %v, want one wrapping context.Canceled", err)
	}
	settled("canceled run")

	func() {
		defer func() {
			if p := recover(); p != ctxPanic {
				t.Errorf("panicking window: recovered %v, want %v", p, ctxPanic)
			}
		}()
		Run(cfg, w.Prog, w.Budget, w.Warmup, 2, 40_000_000, DefaultSpec(), uarch.WithContext(panicCtx{context.Background()}))
		t.Error("panicking window: Run returned")
	}()
	settled("panicking window")

	// Under a strict 1500-cycle limit the short windows at the trace's
	// start finish and the full-length ones fail. At GOMAXPROCS 1 one
	// window runs at a time and the first failure stops the run; with more
	// cores several fail at once, and Run must still report the first
	// failing window in start order.
	var strictErrs []string
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, err := Run(cfg, w.Prog, w.Budget, w.Warmup, 1, 1500, DefaultSpec(), uarch.WithStrictCycleLimit())
			var hang *uarch.HangError
			if !errors.As(err, &hang) {
				t.Fatalf("GOMAXPROCS %d: err = %v, want a cycle-limit HangError", procs, err)
			}
			strictErrs = append(strictErrs, err.Error())
		}()
	}
	if strictErrs[0] != strictErrs[1] {
		t.Errorf("cycle-limit failure depends on GOMAXPROCS:\n 1: %s\n 4: %s", strictErrs[0], strictErrs[1])
	}
	settled("cycle-limit failure")

	// r1 counts a two-instruction loop down from 40000, so the VM records
	// more than one block before the indirect branch leaves the code.
	bad := isa.NewBuilder("runaway").
		Li(isa.GPR(1), 40_000).
		Li(isa.GPR(2), 0).
		Li(isa.GPR(3), 9999).
		Label("loop").
		Addi(isa.GPR(1), isa.GPR(1), -1).
		Bc(isa.CondNE, isa.GPR(1), isa.GPR(2), "loop").
		Br(isa.GPR(3)).
		Halt().
		MustBuild()
	const wantErr = "sampling: functional pass: runaway @5: indirect target 9999 out of range"
	if _, err := BuildPlan(bad, 1<<20, DefaultSpec()); err == nil || err.Error() != wantErr {
		t.Errorf("BuildPlan: err = %v, want %q", err, wantErr)
	}
	settled("BuildPlan's functional pass")
	if _, err := Run(cfg, bad, 1<<20, 0, 1, 40_000_000, DefaultSpec()); err == nil || err.Error() != wantErr {
		t.Errorf("Run: err = %v, want %q", err, wantErr)
	}
	settled("Run's functional pass")

	// A register the VM does not have (Program.Validate would refuse it):
	// the recording goroutine panics.
	badReg := &isa.Program{Name: "badreg", Code: []isa.Inst{{Op: isa.OpLi, Dst: isa.GPR(200), Imm: 1}, {Op: isa.OpHalt}}}
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Error("VM panic: no runtime error reached the caller's goroutine")
			}
		}()
		BuildPlan(badReg, 100, DefaultSpec())
		t.Error("VM panic: BuildPlan returned")
	}()
	settled("VM panic")
}
