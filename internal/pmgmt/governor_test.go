package pmgmt

import (
	"math"
	"testing"

	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// analyticBoost solves dyn*s^3 + leak*s = budget for s, capped at fmax.
func analyticBoost(dyn, leak, budget, fmax float64) float64 {
	lo, hi := 0.0, fmax
	for i := 0; i < 60; i++ {
		s := (lo + hi) / 2
		if dyn*s*s*s+leak*s > budget {
			hi = s
		} else {
			lo = s
		}
	}
	return (lo + hi) / 2
}

func TestGovernorConvergesToAnalyticBoost(t *testing.T) {
	// Light workload: dyn 0.4, leak 0.06, budget 1.0: the analytic WOF
	// point solves 0.4 s^3 + 0.06 s = 1.0 -> s ~ 1.27.
	g := NewGovernor(1.0)
	s, err := g.SteadyStateScale(0.4, 0.06, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticBoost(0.4, 0.06, 1.0, g.FmaxScale)
	if math.Abs(s-want) > 0.08 {
		t.Errorf("governor settled at %.3f, analytic WOF %.3f", s, want)
	}
}

func TestGovernorHoldsBudgetOnHeavyLoad(t *testing.T) {
	g := NewGovernor(1.0)
	// Heavy workload at nominal already exceeds budget: the loop must
	// settle below nominal.
	s, err := g.SteadyStateScale(1.3, 0.1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1.0 {
		t.Errorf("governor settled at %.3f for an over-budget load", s)
	}
	proj := 1.3*s*s*s + 0.1*s
	if proj > 1.0*1.1 {
		t.Errorf("settled point projects %.3f, above budget", proj)
	}
}

func TestGovernorRespondsToPhaseChange(t *testing.T) {
	g := NewGovernor(1.0)
	// Long light phase then a heavy phase.
	var dyn []float64
	for i := 0; i < 80; i++ {
		dyn = append(dyn, 0.35)
	}
	for i := 0; i < 80; i++ {
		dyn = append(dyn, 1.25)
	}
	traj := g.Run(dyn, 0.06)
	lightEnd := traj[79]
	heavyEnd := traj[len(traj)-1]
	if lightEnd <= 1.05 {
		t.Errorf("light phase never boosted: %.3f", lightEnd)
	}
	if heavyEnd >= lightEnd-0.1 {
		t.Errorf("heavy phase did not back off: %.3f vs %.3f", heavyEnd, lightEnd)
	}
	projected := 1.25*heavyEnd*heavyEnd*heavyEnd + 0.06*heavyEnd
	if projected > 1.12 {
		t.Errorf("heavy steady point projects %.3f above budget", projected)
	}
}

func TestGovernorBounds(t *testing.T) {
	g := NewGovernor(10) // effectively unlimited budget
	for i := 0; i < 200; i++ {
		g.Step(0.01, 0.001)
	}
	if g.Scale() > g.FmaxScale {
		t.Errorf("scale %.3f above Fmax", g.Scale())
	}
	g2 := NewGovernor(0.001) // impossible budget
	for i := 0; i < 200; i++ {
		g2.Step(1.0, 0.1)
	}
	if g2.Scale() < g2.FminScale {
		t.Errorf("scale %.3f below Fmin", g2.Scale())
	}
}

func TestConverged(t *testing.T) {
	flat := []float64{1, 1, 1, 1, 1}
	if _, ok := Converged(flat, 5); !ok {
		t.Error("flat trajectory not converged")
	}
	ramp := []float64{0.5, 0.7, 0.9, 1.1, 1.3}
	if _, ok := Converged(ramp, 5); ok {
		t.Error("ramp trajectory converged")
	}
	if _, ok := Converged(flat, 10); ok {
		t.Error("short trajectory converged with long window")
	}
}

func TestGovernorOnRealEpochSeries(t *testing.T) {
	// Drive the loop with per-epoch dynamic power from a real workload run
	// and the 16-counter proxy as the sensor (the production configuration).
	cfg := uarch.POWER10()
	ds, err := powermodel.Collect(cfg, []*workloads.Workload{
		workloads.IntCompute(), workloads.Compress(), workloads.Stressmark(true),
	}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	px, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	var dyn []float64
	w := workloads.Compress()
	_, err = uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
		30_000_000, uarch.WithWarmup(w.Warmup),
		uarch.WithSampler(2000, func(s uarch.CycleSample) {
			if s.Delta.Cycles > 0 {
				dyn = append(dyn, px.Estimate(s.Delta.Counters()))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) < 10 {
		t.Fatalf("only %d epochs", len(dyn))
	}
	// Budget: the stressmark's power level — compress has headroom.
	_, stressRep := func() (*uarch.Activity, *power.Report) {
		sm := workloads.Stressmark(true)
		res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(sm.Prog, sm.Budget)},
			30_000_000, uarch.WithWarmup(sm.Warmup))
		if err != nil {
			t.Fatal(err)
		}
		return &res.Activity, power.NewModel(cfg).Report(&res.Activity)
	}()
	g := NewGovernor(stressRep.EffCap)
	traj := g.Run(dyn, stressRep.Leakage)
	final := traj[len(traj)-1]
	if final <= 1.02 {
		t.Errorf("governor found no WOF headroom on compress: %.3f", final)
	}
	if final > g.FmaxScale {
		t.Errorf("governor exceeded Fmax: %.3f", final)
	}
}
