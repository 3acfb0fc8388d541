package uarch

import (
	"errors"
	"fmt"
	"testing"

	"power10sim/internal/trace"
	"power10sim/internal/workloads"
)

// This file is the correctness anchor for the wakeup scheduler (sched.go):
// the optimized issue path must be cycle-for-cycle indistinguishable from the
// retained naive O(window) ready scan, across both machine generations, every
// SMT mode and every workload family. "Indistinguishable" is asserted on the
// full Activity struct — one diverging counter anywhere (stall attribution,
// unit-busy cycles, cache traffic) fails the test, which is what keeps every
// reported experiment byte-identical.

// equivWorkloads returns one small-budget representative set spanning every
// workload family: the whole SPECint-like suite, VSU and MMA kernels, an AI
// inference model, and both synthetic stressmarks.
func equivWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	ws = append(ws, workloads.SPECintSuite()...)
	ws = append(ws, workloads.Daxpy(512, 4))
	if w, _, err := workloads.DGEMMVSU(workloads.GEMMSize{M: 8, N: 16, K: 8}); err != nil {
		t.Fatal(err)
	} else {
		ws = append(ws, w)
	}
	if w, _, err := workloads.DGEMMMMA(workloads.GEMMSize{M: 8, N: 16, K: 8}); err != nil {
		t.Fatal(err)
	} else {
		ws = append(ws, w)
	}
	if w, err := workloads.ResNet50(true); err != nil {
		t.Fatal(err)
	} else {
		ws = append(ws, w)
	}
	ws = append(ws, workloads.Stressmark(true))
	ws = append(ws, workloads.ActiveIdle())
	return ws
}

// equivStreams builds smt fresh streams over w with a capped budget so the
// full cross product stays fast.
func equivStreams(w *workloads.Workload, smt int) []trace.Stream {
	budget := w.Budget
	if budget > 5000 {
		budget = 5000
	}
	streams := make([]trace.Stream, smt)
	for i := range streams {
		streams[i] = trace.NewVMStream(w.Prog, budget)
	}
	return streams
}

func TestWakeupSchedulerMatchesNaiveScan(t *testing.T) {
	// A memory latency past the wake wheel's horizon parks every miss's
	// dependents early and re-parks them until due. The naive scan times
	// its long stalls cycle by cycle, so that config runs at SMT1 only.
	farMem := POWER10()
	farMem.Name = "POWER10-farmem"
	farMem.MemLatency = 2 * wakeHorizon
	farMem.SMTMax = 1
	configs := []*Config{POWER9(), POWER10(), farMem}
	for _, w := range equivWorkloads(t) {
		for _, cfg := range configs {
			smtMax := cfg.SMTMax
			for _, smt := range []int{1, 4, 8} {
				if smt > smtMax {
					continue
				}
				name := fmt.Sprintf("%s/%s/smt%d", w.Name, cfg.Name, smt)
				t.Run(name, func(t *testing.T) {
					res, err := Simulate(cfg, equivStreams(w, smt), 10_000_000)
					ref, refErr := Simulate(cfg, equivStreams(w, smt), 10_000_000, withNaiveSched())
					// An MMA workload on a machine without MMA units wedges
					// at the ROB head under either scheduler; the watchdog
					// diagnostics must then be identical too.
					if err != nil || refErr != nil {
						if err == nil || refErr == nil || err.Error() != refErr.Error() {
							t.Fatalf("error divergence:\n wakeup: %v\n naive:  %v", err, refErr)
						}
						return
					}
					if res.Activity != ref.Activity {
						t.Errorf("wakeup scheduler diverged from naive scan:\n wakeup: %+v\n naive:  %+v",
							res.Activity, ref.Activity)
					}
				})
			}
		}
	}
}

// TestWakeupSchedulerMatchesNaiveUnderUpset covers the fault-injection paths:
// a corrupted effective address and a delayed completion must yield identical
// Activity and UpsetOutcome, and a dependency wedge must produce the same
// hang diagnosis under both schedulers (the wakeup path parks the wedged
// entry on its own waiter list, the naive path rescans it forever — either
// way the forward-progress watchdog must fire at the same cycle).
func TestWakeupSchedulerMatchesNaiveUnderUpset(t *testing.T) {
	cfg := POWER10()
	w := workloads.Daxpy(256, 4)
	for _, tc := range []struct {
		name string
		u    Upset
	}{
		{"ea", Upset{Cycle: 200, Target: UpsetEA, Slot: 3, Bit: 7, DoneDelay: 500}},
		{"done", Upset{Cycle: 200, Target: UpsetDone, Slot: 3, Bit: 7, DoneDelay: 500}},
		// Past the wake wheel's horizon: the victim's dependents wake at its
		// old completion cycle and re-park a horizon at a time until due.
		{"done-far", Upset{Cycle: 200, Target: UpsetDone, Slot: 3, Bit: 7, DoneDelay: 4*wakeHorizon + 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, target := &tc.u, tc.u.Target
			res, err := Simulate(cfg, equivStreams(w, 1), 10_000_000, WithUpset(u))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Simulate(cfg, equivStreams(w, 1), 10_000_000, WithUpset(u), withNaiveSched())
			if err != nil {
				t.Fatal(err)
			}
			if res.Activity != ref.Activity {
				t.Errorf("%v upset diverged:\n wakeup: %+v\n naive:  %+v", target, res.Activity, ref.Activity)
			}
			if res.Upset == nil || ref.Upset == nil {
				t.Fatalf("missing upset outcome: wakeup=%v naive=%v", res.Upset, ref.Upset)
			}
			if *res.Upset != *ref.Upset {
				t.Errorf("%v outcome diverged: wakeup=%+v naive=%+v", target, *res.Upset, *ref.Upset)
			}
		})
	}
	t.Run("dep-hang", func(t *testing.T) {
		u := &Upset{Cycle: 200, Target: UpsetDep, Slot: 3}
		_, err := Simulate(cfg, equivStreams(w, 1), 10_000_000, WithUpset(u))
		_, refErr := Simulate(cfg, equivStreams(w, 1), 10_000_000, WithUpset(u), withNaiveSched())
		var he, refHe *HangError
		if !errors.As(err, &he) {
			t.Fatalf("wakeup: want HangError, got %v", err)
		}
		if !errors.As(refErr, &refHe) {
			t.Fatalf("naive: want HangError, got %v", refErr)
		}
		if he.Error() != refHe.Error() {
			t.Errorf("hang diagnostics diverged:\n wakeup: %s\n naive:  %s", he, refHe)
		}
	})
}
