package socket

import (
	"math"
	"testing"

	"power10sim/internal/power"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func coreReport(t *testing.T, cfg *uarch.Config, w *workloads.Workload) (float64, *power.Report) {
	t.Helper()
	res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
		30_000_000, uarch.WithWarmup(w.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	return res.IPC(), power.NewModel(cfg).Report(&res.Activity)
}

func TestDieSimulationDeterministic(t *testing.T) {
	cfg := POWER10Socket()
	a := SimulateDie(cfg, 42)
	b := SimulateDie(cfg, 42)
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatal("die simulation not deterministic")
		}
	}
	c := SimulateDie(cfg, 43)
	same := true
	for i := range a.Cores {
		if a.Cores[i] != c.Cores[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical dies")
	}
}

func TestVariationIsCentered(t *testing.T) {
	cfg := POWER10Socket()
	var sumF, sumL float64
	n := 0
	for s := uint64(1); s <= 400; s++ {
		d := SimulateDie(cfg, s)
		for _, c := range d.Cores {
			sumF += c.FmaxScale
			sumL += c.LeakFactor
			n++
		}
	}
	if m := sumF / float64(n); m < 0.97 || m > 1.04 {
		t.Errorf("mean fmax scale %.3f not near 1", m)
	}
	if m := sumL / float64(n); m < 0.95 || m > 1.08 {
		t.Errorf("mean leak factor %.3f not near 1", m)
	}
}

func TestCLYSparingHelps(t *testing.T) {
	// Selling 15 of 16 fabricated cores must yield far better than selling
	// all 16.
	spare := POWER10Socket()
	noSpare := spare
	noSpare.FunctionalCores = 16
	ySpare := CLY(spare, 2000)
	yNone := CLY(noSpare, 2000)
	if ySpare <= yNone {
		t.Errorf("sparing yield %.3f <= no-spare %.3f", ySpare, yNone)
	}
	if ySpare < 0.85 {
		t.Errorf("15-of-16 CLY %.3f implausibly low", ySpare)
	}
	// With a 3.5% defect rate, 16-of-16 yield ~ 0.965^16 ~ 0.57.
	if yNone > 0.75 {
		t.Errorf("16-of-16 CLY %.3f implausibly high", yNone)
	}
}

func TestPFLYMonotoneInFrequency(t *testing.T) {
	_, rep := coreReport(t, uarch.POWER10(), workloads.Compress())
	cfg := POWER10Socket()
	prev := 1.1
	for _, s := range []float64{0.9, 1.0, 1.1, 1.2, 1.3} {
		y := PFLY(cfg, rep, s, 400)
		if y > prev+1e-9 {
			t.Errorf("PFLY rose from %.3f to %.3f at s=%.2f", prev, y, s)
		}
		prev = y
	}
}

func TestWOFHeadroomRaisesSortPoint(t *testing.T) {
	// A light (memory-bound) workload must sort at a higher frequency than
	// the stressmark — the essence of WOF at the socket level.
	cfg := POWER10Socket()
	_, heavy := coreReport(t, uarch.POWER10(), workloads.Stressmark(true))
	_, light := coreReport(t, uarch.POWER10(), workloads.GraphOpt())
	sHeavy := SortPointJobs(cfg, heavy, 0.9, 200, 1)
	sLight := SortPointJobs(cfg, light, 0.9, 200, 1)
	if sLight <= sHeavy {
		t.Errorf("light workload sort %.2f <= heavy %.2f", sLight, sHeavy)
	}
}

func TestSocketPowerScalesWithFrequency(t *testing.T) {
	_, rep := coreReport(t, uarch.POWER10(), workloads.IntCompute())
	cfg := POWER10Socket()
	dies := []Die{SimulateDie(cfg, 1), SimulateDie(cfg, 2)}
	p1 := SocketPower(cfg, rep, dies, 1.0)
	p2 := SocketPower(cfg, rep, dies, 1.2)
	if p2 <= p1 {
		t.Error("higher frequency did not raise socket power")
	}
	// Dynamic-dominated: the ratio must exceed linear.
	if p2/p1 < 1.2 {
		t.Errorf("power scaling %.3f weaker than linear", p2/p1)
	}
}

// TestSocketEfficiencyUpTo3x reproduces Table I's socket-level claim: the
// POWER10 dual-chip socket delivers up to ~3x the energy efficiency of the
// POWER9 reference on SPECint-class work.
func TestSocketEfficiencyUpTo3x(t *testing.T) {
	w := workloads.Compress()
	ipc9, rep9 := coreReport(t, uarch.POWER9(), w)
	ipc10, rep10 := coreReport(t, uarch.POWER10(), w)
	eff, err := CompareEfficiencyJobs(POWER9Socket(), ipc9, rep9, POWER10Socket(), ipc10, rep10, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Gain < 2.0 || eff.Gain > 4.5 {
		t.Errorf("socket efficiency gain %.2fx outside [2.0, 4.5] (paper: up to 3x)", eff.Gain)
	}
	if eff.PerfRatio < 2.0 {
		t.Errorf("socket perf ratio %.2f too low (2.5x cores at >=1x per-core perf)", eff.PerfRatio)
	}
	if math.IsNaN(eff.PowerRatio) || eff.PowerRatio <= 0 {
		t.Errorf("bad power ratio %v", eff.PowerRatio)
	}
}

func TestSortScaleRequiresEnoughCores(t *testing.T) {
	cfg := POWER10Socket()
	d := Die{Cores: make([]Core, cfg.FabricatedCores)}
	// All cores defective.
	if _, ok := sortScale(cfg, &d); ok {
		t.Error("sortScale accepted a dead die")
	}
}

// refPFLY is the per-step search the build-once path replaced, kept as the
// reference: it re-simulates every trial's dies at the scale it tests.
func refPFLY(cfg Config, rep *power.Report, s float64, trials int) float64 {
	pass, eligible := 0, 0
trial:
	for t := 0; t < trials; t++ {
		dies := make([]Die, cfg.ChipsPerSocket)
		freqOK := true
		for ci := range dies {
			dies[ci] = SimulateDie(cfg, uint64(t*cfg.ChipsPerSocket+ci)+1)
			fs, enough := sortScale(cfg, &dies[ci])
			if !enough {
				continue trial
			}
			if fs < s {
				freqOK = false
			}
		}
		eligible++
		if freqOK && SocketPower(cfg, rep, dies, s) <= cfg.TDP {
			pass++
		}
	}
	if eligible == 0 {
		return 0
	}
	return float64(pass) / float64(eligible)
}

// refSortPoint is the reference sort search over the same 0.01 steps.
func refSortPoint(cfg Config, rep *power.Report, targetYield float64, trials int) float64 {
	best := 0.0
	for k := sortStepLo; k <= sortStepHi; k++ {
		if s := float64(k) / 100; refPFLY(cfg, rep, s, trials) >= targetYield {
			best = s
		}
	}
	return best
}

// TestSearchMatchesPerStepReference holds the build-once search to the
// per-step one: the same PFLY at every step and the same sort point, for
// any worker count.
func TestSearchMatchesPerStepReference(t *testing.T) {
	noSpare := POWER10Socket()
	noSpare.FunctionalCores = 16
	cfgs := []Config{POWER10Socket(), noSpare, POWER9Socket()}
	p10 := uarch.POWER10()
	reps := map[string]*power.Report{}
	for _, w := range []*workloads.Workload{workloads.Stressmark(true), workloads.GraphOpt(), workloads.Compress()} {
		_, reps[w.Name] = coreReport(t, p10, w)
	}
	const trials = 100
	for _, cfg := range cfgs {
		for name, rep := range reps {
			want := refSortPoint(cfg, rep, 0.9, trials)
			for _, jobs := range []int{1, 4} {
				if got := SortPointJobs(cfg, rep, 0.9, trials, jobs); got != want {
					t.Errorf("%s/%s jobs=%d: sort point %v, reference %v", cfg.Name, name, jobs, got, want)
				}
			}
			for k := sortStepLo; k <= sortStepHi; k += 5 {
				s := float64(k) / 100
				want := refPFLY(cfg, rep, s, trials)
				for _, jobs := range []int{1, 4} {
					if got := PFLYJobs(cfg, rep, s, trials, jobs); got != want {
						t.Errorf("%s/%s jobs=%d: PFLY(%v) = %v, reference %v", cfg.Name, name, jobs, s, got, want)
					}
				}
			}
		}
	}
}

// TestSortPointReachesTopStep: with no yield target every step qualifies,
// so the search must land exactly on its documented top step.
func TestSortPointReachesTopStep(t *testing.T) {
	_, rep := coreReport(t, uarch.POWER10(), workloads.GraphOpt())
	if got := SortPointJobs(POWER10Socket(), rep, 0, 50, 2); got != 1.40 {
		t.Errorf("sort point with target 0 = %v, want 1.4", got)
	}
}
