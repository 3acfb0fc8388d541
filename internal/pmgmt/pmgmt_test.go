package pmgmt

import (
	"math"
	"math/rand"
	"testing"

	"power10sim/internal/mlfit"
	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func report(t *testing.T, cfg *uarch.Config, w *workloads.Workload) *power.Report {
	t.Helper()
	res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
		30_000_000, uarch.WithWarmup(w.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	return power.NewModel(cfg).Report(&res.Activity)
}

func TestWOFBoostsLightWorkloads(t *testing.T) {
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	stressBoost := wof.Boost(report(t, cfg, workloads.Stressmark(true)))
	if stressBoost > 1.001 {
		t.Errorf("stressmark boosted %.3fx; the design point must not boost", stressBoost)
	}
	lightBoost := wof.Boost(report(t, cfg, workloads.GraphOpt()))
	if lightBoost < 1.05 {
		t.Errorf("memory-bound workload boost %.3fx, want > 1.05", lightBoost)
	}
	if lightBoost > wof.FmaxScale {
		t.Errorf("boost %.3f exceeds Fmax cap", lightBoost)
	}
	midBoost := wof.Boost(report(t, cfg, workloads.Compress()))
	if midBoost <= 1.0 || midBoost > lightBoost {
		t.Errorf("mid workload boost %.3f not between 1 and %.3f", midBoost, lightBoost)
	}
}

func TestWOFIsDeterministic(t *testing.T) {
	// The paper stresses determinism: same workload, same sort => same
	// boost. Two independent runs must agree exactly.
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	b1 := wof.Boost(report(t, cfg, workloads.XMLTrans()))
	b2 := wof.Boost(report(t, cfg, workloads.XMLTrans()))
	if b1 != b2 {
		t.Errorf("boost not deterministic: %v vs %v", b1, b2)
	}
}

func TestMMAGatingIncreasesWOFHeadroom(t *testing.T) {
	// Section IV-A: the power-gated MMA's reclaimed leakage becomes boost.
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	rep := report(t, cfg, workloads.IntCompute())
	gated := wof.Boost(rep)
	// Same workload with the MMA forced on (no gating).
	repOn := *rep
	repOn.Leakage += 0.02 // ungated MMA leakage
	repOn.Total += 0.02
	on := wof.Boost(&repOn)
	if gated <= on {
		t.Errorf("gated boost %.4f <= ungated %.4f", gated, on)
	}
}

func proxyDataset(t *testing.T) *powermodel.Dataset {
	t.Helper()
	ws := []*workloads.Workload{
		workloads.IntCompute(), workloads.Compress(), workloads.MediaVec(),
		workloads.BoardEval(), workloads.XMLTrans(), workloads.Stressmark(true),
	}
	ds, err := powermodel.Collect(uarch.POWER10(), ws, 2500)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestProxyDesignSixteenCounters(t *testing.T) {
	ds := proxyDataset(t)
	p, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Counters) > 16 {
		t.Errorf("proxy uses %d counters, cap is 16", len(p.Counters))
	}
	// Hardware constraint: all weights non-negative.
	for i, c := range p.Model.Coef {
		if c < 0 {
			t.Errorf("counter %s has negative weight %v", p.Counters[i], c)
		}
	}
	// Paper: ~9.8% active-power error for the 16-counter design.
	if p.ActiveError > 15 {
		t.Errorf("16-counter proxy active error %.1f%%", p.ActiveError)
	}
}

func TestProxyAccuracyCurveShape(t *testing.T) {
	ds := proxyDataset(t)
	curve, err := AccuracyCurve(ds, []int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if curve[2].ActiveError < curve[16].ActiveError {
		t.Errorf("Fig 15a shape violated: 2 counters %.1f%% < 16 counters %.1f%%", curve[2].ActiveError, curve[16].ActiveError)
	}
}

func TestGranularityErrorShape(t *testing.T) {
	// Fig. 15(b): near-best accuracy at >= 50-cycle windows, rapidly
	// degrading below.
	ds := proxyDataset(t)
	p, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Compress()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, w.Budget) }
	// 25 is not a multiple of 10: the shared run samples at 5 cycles.
	windows := []uint64{10, 25, 50, 500, 5000}
	errs, err := GranularityError(p, uarch.POWER10(), mk(), windows, ds.IdleFloor)
	if err != nil {
		t.Fatal(err)
	}
	// The windows share one run summed from the windows' gcd; each window
	// read off its own sampler in its own run must score exactly the same.
	for _, win := range windows {
		if alone := windowAlone(t, p, uarch.POWER10(), mk(), win, ds.IdleFloor); alone != errs[win] {
			t.Errorf("window %d: %v alone, %v in the shared run", win, alone, errs[win])
		}
	}
	if errs[10] <= errs[500] {
		t.Errorf("10-cycle windows error %.1f%% <= 500-cycle %.1f%%", errs[10], errs[500])
	}
	if errs[5000] > 20 {
		t.Errorf("coarse-window error %.1f%% too high", errs[5000])
	}
}

// windowAlone is Fig. 15(b)'s error at one window, scored on the deltas of
// that window's own sampler in a run of its own.
func windowAlone(t *testing.T, p *Proxy, cfg *uarch.Config, s trace.Stream, win uint64, idleFloor float64) float64 {
	t.Helper()
	model := power.NewModel(cfg)
	var sumAbs, sumRef float64
	cb := func(cs uarch.CycleSample) {
		ref := model.Report(&cs.Delta)
		sumAbs += math.Abs(p.Estimate(cs.Delta.Counters()) + idleFloor - ref.Total)
		sumRef += ref.Total
	}
	if _, err := uarch.Simulate(cfg, []trace.Stream{s}, 50_000_000, uarch.WithSampler(win, cb)); err != nil {
		t.Fatal(err)
	}
	return sumAbs / sumRef * 100
}

func TestFitThrottleRespectsCap(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.IntCompute()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 40_000) }
	full, err := uarch.Simulate(cfg, []trace.Stream{mk()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	fullPower := power.NewModel(cfg).Report(&full.Activity).Total
	cap := fullPower * 0.8
	chosen, levels, err := FitThrottle(cfg, mk, cap, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Power > cap {
		t.Errorf("chosen level power %.3f exceeds cap %.3f", chosen.Power, cap)
	}
	if chosen.DecodeWidth >= cfg.DecodeWidth {
		t.Errorf("cap below full power but throttle kept full width")
	}
	if len(levels) != cfg.DecodeWidth {
		t.Errorf("%d levels explored", len(levels))
	}
	// Narrower width, lower power: monotone trend at the extremes.
	if levels[0].Power <= levels[len(levels)-1].Power {
		t.Errorf("throttling did not reduce power: %.3f -> %.3f",
			levels[0].Power, levels[len(levels)-1].Power)
	}
}

func TestFitThrottleImpossibleCap(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.IntCompute()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 20_000) }
	if _, _, err := FitThrottle(cfg, mk, 0.001, 10_000_000); err == nil {
		t.Error("impossible cap satisfied")
	}
}

func TestDDSProtectsMargin(t *testing.T) {
	// A current step (sudden workload change) droops the rail; the sensor
	// must catch it and hold margin above critical.
	series := make([]float64, 200)
	for i := range series {
		if i < 100 {
			series[i] = 0.3
		} else {
			series[i] = 2.4 // abrupt activity step
		}
	}
	dds := DefaultDDS()
	without := dds.SimulateDroop(series, false)
	with := dds.SimulateDroop(series, true)
	if without.Violations == 0 {
		t.Fatal("test stimulus causes no droop violations")
	}
	if with.Violations >= without.Violations {
		t.Errorf("DDS did not reduce violations: %d vs %d", with.Violations, without.Violations)
	}
	// The initial dip is physical; the sensor must not make anything worse.
	if with.MinMargin < without.MinMargin {
		t.Errorf("DDS min margin %.3f < unprotected %.3f", with.MinMargin, without.MinMargin)
	}
	if with.SensorFirings == 0 || with.ThrottledSlots == 0 {
		t.Error("sensor never fired")
	}
}

func TestDDSQuietWorkloadUntouched(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 0.5
	}
	rep := DefaultDDS().SimulateDroop(series, true)
	if rep.SensorFirings != 0 || rep.ThrottledSlots != 0 {
		t.Error("sensor fired on steady current")
	}
	if rep.Violations != 0 {
		t.Error("steady current violated margin")
	}
}

func TestDroopSeriesFromWorkload(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.Compress()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 60_000) }
	series, err := CurrentSeries(cfg, mk, 500, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("only %d current samples", len(series))
	}
	rep := DefaultDDS().SimulateDroop(series, true)
	if rep.Samples != len(series) {
		t.Error("sample count mismatch")
	}
}

func TestMMAGateHintsHideWakeLatency(t *testing.T) {
	g := MMAGate{IdleBeforeOff: 3, WakeLatency: 50}
	active := []bool{false, false, false, false, true, false, false, false, false, true}
	noHints := make([]bool, len(active))
	rep := g.Evaluate(active, noHints)
	if rep.WakeStalls != 100 {
		t.Errorf("wake stalls %d, want 100 (two cold wakes)", rep.WakeStalls)
	}
	hints := make([]bool, len(active))
	hints[4], hints[9] = true, true
	rep = g.Evaluate(active, hints)
	if rep.WakeStalls != 0 {
		t.Errorf("hinted wake stalls %d, want 0", rep.WakeStalls)
	}
	if rep.GatedWindows == 0 {
		t.Error("gate never engaged")
	}
}

// handDataset is a small corpus built without simulation: two implementable
// event counters and two the proxy may not use (a busy fraction and IPC),
// with active power set from the counters by f.
func handDataset(f func(x []float64) float64) *powermodel.Dataset {
	rng := rand.New(rand.NewSource(9))
	ds := &powermodel.Dataset{Names: []string{"fx_ops", "ld_ops", "busy_fxu", "ipc"}}
	for s := 0; s < 24; s++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ds.Samples = append(ds.Samples, powermodel.Sample{Counters: x, Active: f(x)})
	}
	return ds
}

// TestCurveBudgetEdgeCases pins how the Fig. 11 and Fig. 15(a) curves read
// budgets off their selection paths.
func TestCurveBudgetEdgeCases(t *testing.T) {
	rising := handDataset(func(x []float64) float64 { return 1 + 2*x[0] + x[1] + 3*x[2] + 0.5*x[3] })
	falling := handDataset(func(x []float64) float64 { return 10 - 2*x[0] - 3*x[1] + x[2] })
	errorCurve := func(ds *powermodel.Dataset, budgets []int) (map[int]float64, error) {
		return powermodel.ErrorCurve(ds, budgets, mlfit.Options{Intercept: true})
	}
	accuracyCurve := func(ds *powermodel.Dataset, budgets []int) (map[int]float64, error) {
		proxies, err := AccuracyCurve(ds, budgets)
		if err != nil {
			return nil, err
		}
		curve := map[int]float64{}
		for n, p := range proxies {
			curve[n] = p.ActiveError
		}
		return curve, nil
	}
	cases := []struct {
		name    string
		curve   func(*powermodel.Dataset, []int) (map[int]float64, error)
		ds      *powermodel.Dataset
		budgets []int
		wantErr string
		// same lists budget pairs that must read the same path step.
		same [][2]int
	}{
		{name: "ErrorCurve/no budgets", curve: errorCurve, ds: rising},
		{name: "AccuracyCurve/no budgets", curve: accuracyCurve, ds: rising},
		{name: "ErrorCurve/zero budget", curve: errorCurve, ds: rising, budgets: []int{2, 0},
			wantErr: "mlfit: forward selection found no usable feature"},
		{name: "ErrorCurve/negative budget", curve: errorCurve, ds: rising, budgets: []int{-1},
			wantErr: "mlfit: forward selection found no usable feature"},
		{name: "AccuracyCurve/zero budget", curve: accuracyCurve, ds: rising, budgets: []int{0, 2},
			wantErr: "pmgmt: proxy needs at least one counter"},
		{name: "AccuracyCurve/negative budget", curve: accuracyCurve, ds: rising, budgets: []int{1, -3},
			wantErr: "pmgmt: proxy needs at least one counter"},
		{name: "ErrorCurve/budget above feature count", curve: errorCurve, ds: rising, budgets: []int{1, 4, 9},
			same: [][2]int{{4, 9}}},
		{name: "AccuracyCurve/budget above early stop", curve: accuracyCurve, ds: rising, budgets: []int{1, 2, 3, 16},
			same: [][2]int{{2, 3}, {2, 16}}},
		{name: "AccuracyCurve/no counter passes the strict rule", curve: accuracyCurve, ds: falling, budgets: []int{1, 4},
			wantErr: "pmgmt: no implementable counter set found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			curve, err := tc.curve(tc.ds, tc.budgets)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(curve) != len(tc.budgets) {
				t.Fatalf("curve %v for budgets %v", curve, tc.budgets)
			}
			for _, p := range tc.same {
				if curve[p[0]] != curve[p[1]] {
					t.Errorf("budget %d reads %v, budget %d reads %v; want the same step", p[1], curve[p[1]], p[0], curve[p[0]])
				}
			}
		})
	}
	// The falling corpus still has a non-negative Fig. 11 curve: that
	// selection accepts refits that pruned columns.
	if _, err := powermodel.ErrorCurve(falling, []int{1, 4}, mlfit.Options{Intercept: true, NonNegative: true}); err != nil {
		t.Errorf("non-negative error curve on the falling corpus: %v", err)
	}
}
