// Command p10sim runs one workload on a core configuration and prints a
// performance (and, when available, power) report.
//
// Usage:
//
//	p10sim -workload dgemm-mma -config POWER10 -smt 1
//	p10sim -workload dgemm-mma -trace t.json -sample 1000   # cycle-resolved
//	p10sim -list
//
// With -trace, the simulation records IPC, unit occupancy, branch/cache and
// component-power counter tracks every -sample cycles; load the file in
// chrome://tracing or Perfetto. The stdout report is unchanged by telemetry.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"power10sim/internal/cliutil"
	"power10sim/internal/obsserver"
	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/simobs"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
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
	)
	flag.Parse()
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	switch *sampleMode {
	case "full":
	case "sampled", "validate":
		// Cycle-resolved telemetry and the live server narrate one complete
		// timed run; a sampled run is many short window simulations, so these
		// integrations only exist on the full path.
		if obs.Trace != "" {
			cliutil.Usagef("-trace requires -sample-mode=full (sampled runs have no cycle-resolved trace)")
		}
		if obs.Serve != "" {
			cliutil.Usagef("-serve requires -sample-mode=full")
		}
		if obs.RunLog != "" {
			cliutil.Usagef("-runlog requires -sample-mode=full (the ledger keys one complete timed run)")
		}
		if obs.FlightRec != "" {
			cliutil.Usagef("-flightrec requires -sample-mode=full (sampled runs publish no progress events to record)")
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
	// A single simulation still publishes its lifecycle on the progress bus
	// so -serve clients see the run on /events and /status; with no server
	// (and thus no subscriber) every Publish is a single atomic load.
	// SIGINT/SIGTERM cancel the simulation cooperatively through the core's
	// context check; the error path below still appends the ledger record
	// and publishes the failure event before the harness shuts down.
	h := cliutil.Start(obs, cliutil.Options{Command: "p10sim"})
	defer h.Rec.DumpOnPanic()
	h.Serve(obs.Serve, obsserver.Options{})
	h.Ready()
	if *sampleMode != "full" {
		os.Exit(h.Close(runSampled(w, cfg, *smt, bud, *sampleMode, h.Reg)))
	}
	var streams []trace.Stream
	for i := 0; i < *smt; i++ {
		streams = append(streams, trace.NewVMStream(w.Prog, bud))
	}
	simName := fmt.Sprintf("%s@%s/smt%d", w.Name, cfg.Name, *smt)
	// Recorded before Simulate so /metrics has a sample while the (possibly
	// long) simulation is still running, not only after it retires.
	h.Reg.Counter("sims_started_total",
		telemetry.L("workload", w.Name), telemetry.L("config", cfg.Name)).Add(1)
	h.Bus.Publish(progress.Event{Kind: progress.KindSimStarted, Sim: simName})
	simStart := time.Now()
	sp := h.Tr.Begin("sim:"+simName, "p10sim")
	res, err := uarch.Simulate(cfg, streams, 50_000_000,
		uarch.WithWarmup(w.Warmup*uint64(*smt)),
		uarch.WithContext(h.Ctx),
		simobs.SampleOption(cfg, h.Tr, *sample, *smt))
	sp.End()
	// One-shot ledger append: the record carries the same content key the
	// runner's cache and ledger would use for an identical request, so ad-hoc
	// p10sim runs join sweep history in p10query.
	req := runner.Request{Cfg: cfg, W: w, SMT: *smt, Budget: bud,
		Warmup: w.Warmup * uint64(*smt), MaxCycles: 50_000_000}
	key, _ := runner.ContentKey(req)
	rec := runlog.Record{
		Key: key, Config: cfg.Name, Workload: w.Name, SMT: *smt,
		Budget: bud, Warmup: req.Warmup, MaxCycles: req.MaxCycles,
		Tier: runlog.TierRun, Attempts: 1,
		WallSeconds: time.Since(simStart).Seconds(),
	}
	if err != nil {
		h.Bus.Publish(progress.Event{Kind: progress.KindSimFailed, Sim: simName,
			Err: err.Error(), Elapsed: time.Since(simStart).Seconds()})
		fmt.Fprintln(os.Stderr, err)
		rec.Err = err.Error()
		logRun(h.Led, rec)
		h.Rec.Note("sim failed: %v", err)
		os.Exit(h.Close(1))
	}
	a := &res.Activity
	mdl := power.NewModel(cfg)
	rep := mdl.Report(a)
	h.Bus.Publish(progress.Event{Kind: progress.KindSimFinished, Sim: simName,
		Elapsed: time.Since(simStart).Seconds(), IPC: a.IPC(), Power: rep.Total})
	rec.Measure(a, rep)
	logRun(h.Led, rec)
	fmt.Printf("workload        %s (SMT%d) on %s\n", w.Name, *smt, cfg.Name)
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

	labels := []telemetry.Label{
		telemetry.L("workload", w.Name),
		telemetry.L("config", cfg.Name),
		telemetry.L("smt", fmt.Sprint(*smt)),
	}
	h.Reg.Counter("sim_cycles_total", labels...).Add(a.Cycles)
	h.Reg.Counter("sim_instructions_total", labels...).Add(a.Instructions)
	h.Reg.Gauge("sim_ipc", labels...).Set(a.IPC())
	h.Reg.Gauge("sim_power_total", labels...).Set(rep.Total)
	os.Exit(h.Close(0))
}

// logRun appends the run's one ledger record; the harness closes the ledger
// and prints its summary. Safe on a nil ledger (-runlog unset).
func logRun(led *runlog.Ledger, rec runlog.Record) {
	if err := led.Append(rec); err != nil {
		fmt.Fprintf(os.Stderr, "runlog: %v\n", err)
	}
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

// runSampled is the -sample-mode=sampled|validate path: run the workload
// through the SimPoint-style sampling engine and report the extrapolated
// estimate; in validate mode also run the full simulation and compare against
// the published error bounds (nonzero exit on violation). The estimate's
// metrics go to reg (nil without -metrics). Returns the process exit code.
func runSampled(w *workloads.Workload, cfg *uarch.Config, smt int, bud uint64, mode string, reg *telemetry.Registry) int {
	spec := sampling.DefaultSpec()
	warmup := w.Warmup * uint64(smt)
	est, err := sampling.Run(cfg, w.Prog, bud, warmup, smt, 50_000_000, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	a := &est.Activity
	m := &est.Meta
	fmt.Printf("workload        %s (SMT%d) on %s [sampled]\n", w.Name, smt, cfg.Name)
	fmt.Printf("intervals       %d x %d insts, %d phases, %d windows simulated\n",
		m.Intervals, m.Spec.IntervalInsts, m.K, m.Windows)
	fmt.Printf("timed insts     %d of %d covered (%.1fx effective speedup)\n",
		m.SimulatedInsts, m.ROIInsts, m.Speedup())
	fmt.Printf("cycles          %d (extrapolated)\n", a.Cycles)
	fmt.Printf("instructions    %d\n", a.Instructions)
	fmt.Printf("IPC             %.3f   CPI %.3f (95%% CI +/- %.4f)\n", a.IPC(), a.CPI(), m.CPIHalfWidth)
	fmt.Printf("flops/cycle     %.2f   (total %d)\n", a.FlopsPerCycle(), a.Flops)
	rep := est.Report
	fmt.Printf("power (total)   %.3f  [clock %.3f switch %.3f array %.3f leak %.3f] (95%% CI +/- %.3f)\n",
		rep.Total, rep.Clock, rep.Switching, rep.Array, rep.Leakage, m.PowerHalfWidth)
	fmt.Printf("perf/W (norm)   %.4f\n", a.IPC()/rep.Total)
	exit := 0
	if mode == "validate" {
		var streams []trace.Stream
		for i := 0; i < smt; i++ {
			streams = append(streams, trace.NewVMStream(w.Prog, bud))
		}
		res, err := uarch.Simulate(cfg, streams, 50_000_000, uarch.WithWarmup(warmup))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fullRep := power.NewModel(cfg).Report(&res.Activity)
		cpiErr := relErr(a.CPI(), res.Activity.CPI())
		powErr := relErr(rep.Total, fullRep.Total)
		fmt.Printf("validate        full CPI %.4f sampled %.4f (err %.2f%%, bound %.0f%%)\n",
			res.Activity.CPI(), a.CPI(), 100*cpiErr, 100*sampling.CPIErrBound)
		fmt.Printf("                full power %.3f sampled %.3f (err %.2f%%, bound %.0f%%)\n",
			fullRep.Total, rep.Total, 100*powErr, 100*sampling.PowerErrBound)
		if cpiErr > sampling.CPIErrBound || powErr > sampling.PowerErrBound {
			fmt.Println("validate        FAIL: error bound exceeded")
			exit = 1
		} else {
			fmt.Println("validate        ok")
		}
	}
	labels := []telemetry.Label{
		telemetry.L("workload", w.Name),
		telemetry.L("config", cfg.Name),
		telemetry.L("smt", fmt.Sprint(smt)),
	}
	reg.Counter("sampling_intervals_total", labels...).Add(uint64(m.Intervals))
	reg.Counter("sampling_simulated_total", labels...).Add(m.SimulatedInsts)
	reg.Gauge("sampling_speedup", labels...).Set(m.Speedup())
	reg.Gauge("sim_ipc", labels...).Set(a.IPC())
	reg.Gauge("sim_power_total", labels...).Set(rep.Total)
	return exit
}

// relErr is |got-want|/|want| (absolute error against a zero reference).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	return d / want
}
