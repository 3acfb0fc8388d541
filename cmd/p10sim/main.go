// Command p10sim runs one workload on a core configuration and prints a
// performance and power report.
//
// Usage:
//
//	p10sim -workload dgemm-mma -config POWER10 -smt 1
//	p10sim -workload dgemm-mma -trace t.json -sample 1000   # cycle-resolved
//	p10sim -workload compress -top 15                       # power deep-dive
//	p10sim -list
//
// Every run is a runner request on the harness pool, like a sweep point: it
// obeys a strict cycle limit, joins the -runlog ledger under its content
// key, and publishes its lifecycle to -serve and -flightrec. With -trace,
// the simulation records IPC, unit occupancy, branch/cache and
// component-power counter tracks every -sample cycles; load the file in
// chrome://tracing or Perfetto. The stdout report is unchanged by telemetry.
//
// -top N follows the report with the designer deep-dive of the power
// methodology: the Einspower categories, the N largest of the 39
// components, the Powerminer-style latch switching statistics
// (clock-enabled fraction, potential vs observed switching, ghost
// switching), and the per-unit busy profile the clock-gating discipline is
// judged by.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"power10sim/internal/cliutil"
	"power10sim/internal/obsserver"
	"power10sim/internal/power"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func main() {
	obs := cliutil.Register(cliutil.Help{
		Metrics:   "write a metrics-registry JSON snapshot to this file",
		Trace:     "write a Chrome trace_event JSON file to this file",
		FlightRec: "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, or drain",
		Serve:     "serve the live observability endpoints on this address (e.g. :9090)",
		RunLog:    "append this run's campaign-ledger record under this directory",
	})
	var (
		wlName     = flag.String("workload", "intcompute", "workload name (see -list)")
		cfgName    = flag.String("config", "POWER10", "POWER9 | POWER10 | POWER10-noMMA")
		smt        = flag.Int("smt", 1, "number of hardware threads (copies of the workload)")
		budget     = flag.Uint64("budget", 0, "dynamic instruction budget per thread (0 = workload default)")
		list       = flag.Bool("list", false, "list workloads and exit")
		sample     = flag.Uint64("sample", 1000, "cycle-sampling interval for -trace counter tracks (0 = off)")
		sampleMode = flag.String("sample-mode", "full", "full | sampled | validate: time every instruction, run the SimPoint-style sampling engine, or run both and compare")
		top        = flag.Int("top", 0, "after the report, print the power deep-dive with the top N of the 39 components (0 = off)")
	)
	flag.Parse()
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	if *top < 0 {
		cliutil.Usagef("-top %d: must be >= 0", *top)
	}
	switch *sampleMode {
	case "full":
	case "sampled", "validate":
		// Cycle tracks and the deep-dive describe one complete timed run; a
		// sampled run is many short window simulations.
		if obs.Trace != "" {
			cliutil.Usagef("-trace requires -sample-mode=full (sampled runs have no cycle-resolved trace)")
		}
		if *top > 0 {
			cliutil.Usagef("-top requires -sample-mode=full (sampled runs extrapolate the component breakdown)")
		}
	default:
		cliutil.Usagef("-sample-mode %q: must be full | sampled | validate", *sampleMode)
	}
	// -budget 0 is the "workload default" sentinel only when the flag is
	// unset; an explicit -budget 0 is a request for zero work and is rejected
	// instead of silently running the default budget.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "budget" && *budget == 0 {
			cliutil.Usagef("-budget 0: must be > 0 (omit the flag for the workload default)")
		}
	})
	obs.Check()

	cat := workloads.Catalog()
	if *list {
		var names []string
		for n := range cat {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-16s %s\n", n, cat[n].Category)
		}
		return
	}
	w, ok := cat[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wlName)
		os.Exit(1)
	}
	cfg := uarch.ConfigByName(*cfgName)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfgName)
		os.Exit(1)
	}
	if w.Prog == nil {
		fmt.Fprintln(os.Stderr, "workload has no program")
		os.Exit(1)
	}
	bud := w.Budget
	if *budget > 0 {
		bud = *budget
	}
	h := cliutil.Start(obs, cliutil.Options{Command: "p10sim"})
	defer h.Rec.DumpOnPanic()
	h.Pool.SetCycleTracks(*sample)
	h.Serve(obs.Serve, obsserver.Options{})
	h.Ready()

	// A sampled run is the full request with the default spec attached;
	// validate mode also runs the full twin in the same batch. SIGINT and
	// SIGTERM cancel both cooperatively.
	full := runner.Request{Cfg: cfg, W: w, SMT: *smt, Budget: bud,
		Warmup: w.Warmup * uint64(*smt), MaxCycles: 50_000_000}
	reqs := []runner.Request{full}
	if *sampleMode != "full" {
		spec := sampling.DefaultSpec()
		reqs[0].Sample = &spec
		if *sampleMode == "validate" {
			reqs = append(reqs, full)
		}
	}
	results := h.Pool.RunAllCtx(h.Ctx, reqs)
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, res.Err)
			os.Exit(h.Close(1))
		}
	}
	res := results[0]
	a, rep := res.Activity, res.Report
	if res.Sampling == nil {
		printFull(w, cfg, *smt, a, rep)
	} else {
		printSampled(w, cfg, *smt, a, rep, res.Sampling)
	}
	exit := 0
	if len(results) == 2 {
		exit = validate(res, results[1])
	}
	if *top > 0 {
		deepDive(cfg, a, rep, *top)
	}

	labels := []telemetry.Label{
		telemetry.L("workload", w.Name),
		telemetry.L("config", cfg.Name),
		telemetry.L("smt", fmt.Sprint(*smt)),
	}
	h.Reg.Counter("sim_cycles_total", labels...).Add(a.Cycles)
	h.Reg.Counter("sim_instructions_total", labels...).Add(a.Instructions)
	h.Reg.Gauge("sim_ipc", labels...).Set(a.IPC())
	h.Reg.Gauge("sim_power_total", labels...).Set(rep.Total)
	os.Exit(h.Close(exit))
}

func printFull(w *workloads.Workload, cfg *uarch.Config, smt int, a *uarch.Activity, rep *power.Report) {
	fmt.Printf("workload        %s (SMT%d) on %s\n", w.Name, smt, cfg.Name)
	fmt.Printf("cycles          %d\n", a.Cycles)
	fmt.Printf("instructions    %d\n", a.Instructions)
	fmt.Printf("internal ops    %d (fused pairs %d)\n", a.InternalOps, a.FusedPairs)
	fmt.Printf("IPC             %.3f   CPI %.3f\n", a.IPC(), a.CPI())
	fmt.Printf("flops/cycle     %.2f   (total %d)\n", a.FlopsPerCycle(), a.Flops)
	fmt.Printf("branch MPKI     %.2f   wrong-path slots %d\n", a.MispredictsPerKI(), a.WrongPathSlots)
	fmt.Printf("L1D miss rate   %.4f  (%d/%d)\n",
		float64(a.L1DMisses)/max1(a.L1DAccesses), a.L1DMisses, a.L1DAccesses)
	fmt.Printf("L2 miss rate    %.4f  L3 acc %d  mem acc %d\n",
		float64(a.L2Misses)/max1(a.L2Accesses), a.L3Accesses, a.MemAccesses)
	fmt.Printf("DERAT lookups   %d   TLB misses %d\n", a.DERATLookups, a.TLBMisses)
	fmt.Printf("MMA ops         %d   active cycles %d\n", a.MMAOps, a.MMAActiveCycles)

	fmt.Printf("power (total)   %.3f  [clock %.3f switch %.3f array %.3f leak %.3f]\n",
		rep.Total, rep.Clock, rep.Switching, rep.Array, rep.Leakage)
	fmt.Printf("perf/W (norm)   %.4f\n", a.IPC()/rep.Total)
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

// printSampled reports a sampling-engine estimate with its coverage and
// confidence intervals. A guarded run, which the sampler ran in full
// because its windows would time no fewer instructions than they cover,
// prints as such: exact, so with no intervals.
func printSampled(w *workloads.Workload, cfg *uarch.Config, smt int, a *uarch.Activity, rep *power.Report, m *sampling.Meta) {
	mode := "sampled"
	windows := fmt.Sprintf("%d windows simulated", m.Windows)
	extrapolated := " (extrapolated)"
	cpiCI := fmt.Sprintf(" (95%% CI +/- %.4f)", m.CPIHalfWidth)
	powCI := fmt.Sprintf(" (95%% CI +/- %.3f)", m.PowerHalfWidth)
	if m.Guarded {
		mode = "sampled: guarded, ran in full"
		windows = "no windows: they would time no fewer than they cover"
		extrapolated, cpiCI, powCI = "", "", ""
	}
	fmt.Printf("workload        %s (SMT%d) on %s [%s]\n", w.Name, smt, cfg.Name, mode)
	fmt.Printf("intervals       %d x %d insts, %d phases, %s\n",
		m.Intervals, m.Spec.IntervalInsts, m.K, windows)
	fmt.Printf("timed insts     %d of %d covered (%.1fx effective speedup)\n",
		m.SimulatedInsts, m.ROIInsts, m.Speedup())
	fmt.Printf("cycles          %d%s\n", a.Cycles, extrapolated)
	fmt.Printf("instructions    %d\n", a.Instructions)
	fmt.Printf("IPC             %.3f   CPI %.3f%s\n", a.IPC(), a.CPI(), cpiCI)
	fmt.Printf("flops/cycle     %.2f   (total %d)\n", a.FlopsPerCycle(), a.Flops)
	fmt.Printf("power (total)   %.3f  [clock %.3f switch %.3f array %.3f leak %.3f]%s\n",
		rep.Total, rep.Clock, rep.Switching, rep.Array, rep.Leakage, powCI)
	fmt.Printf("perf/W (norm)   %.4f\n", a.IPC()/rep.Total)
}

// validate compares the sampled estimate with its full-run ground truth
// against the published error bounds and returns the exit status: 1 when a
// bound is exceeded.
func validate(sampled, full runner.Result) int {
	fullCPI, sampCPI := full.Activity.CPI(), sampled.Activity.CPI()
	fullPow, sampPow := full.Report.Total, sampled.Report.Total
	cpiErr, powErr, ok := sampling.Compare(sampCPI, fullCPI, sampPow, fullPow)
	fmt.Printf("validate        full CPI %.4f sampled %.4f (err %.2f%%, bound %.0f%%)\n",
		fullCPI, sampCPI, 100*cpiErr, 100*sampling.CPIErrBound)
	fmt.Printf("                full power %.3f sampled %.3f (err %.2f%%, bound %.0f%%)\n",
		fullPow, sampPow, 100*powErr, 100*sampling.PowerErrBound)
	if !ok {
		fmt.Println("validate        FAIL: error bound exceeded")
		return 1
	}
	fmt.Println("validate        ok")
	return 0
}

// deepDive prints the Einspower-style view of a full run: power by
// category, the top components, the latch switching statistics and the
// per-unit busy fractions.
func deepDive(cfg *uarch.Config, a *uarch.Activity, rep *power.Report, top int) {
	fmt.Printf("\nEinspower categories: clock %.3f  switching %.3f (ghost %.4f)  array %.3f  leakage %.3f\n",
		rep.Clock, rep.Switching, rep.Ghost, rep.Array, rep.Leakage)
	fmt.Printf("active-idle floor %.3f, effective capacitance %.3f\n\n", rep.ActiveIdle, rep.EffCap)

	type comp struct {
		name string
		p    float64
	}
	var comps []comp
	for i, n := range power.ComponentNames {
		comps = append(comps, comp{n, rep.Components[i]})
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a].p > comps[b].p })
	fmt.Printf("top %d of %d components:\n", top, len(comps))
	for _, c := range comps[:min(top, len(comps))] {
		fmt.Printf("  %-16s %8.4f  (%4.1f%%)\n", c.name, c.p, c.p/rep.Total*100)
	}

	latch := power.NewModel(cfg).Latch
	lstats := latch.Analyze(a)
	fmt.Printf("\nPowerminer latch statistics (%d latches):\n", lstats.TotalLatches)
	fmt.Printf("  clock-enabled fraction   %.3f  (gating efficiency %.2f)\n",
		lstats.ClockEnabledFraction, latch.GatingEff)
	fmt.Printf("  potential switching      %.4f\n", lstats.PotentialSwitchRatio)
	fmt.Printf("  observed switching       %.4f\n", lstats.ObservedSwitchRatio)
	fmt.Printf("  ghost switching          %.5f (factor %.2f)\n",
		lstats.GhostSwitchRatio, latch.GhostFactor)

	fmt.Println("\nper-unit busy fractions:")
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		fmt.Printf("  %-12s %5.1f%%\n", u, a.BusyFraction(u)*100)
	}
}
