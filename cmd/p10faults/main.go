// Command p10faults runs the statistical latch fault-injection campaign and
// cross-validates SERMiner's analytic derating (Figs. 13-14 machinery)
// against injection-measured masking.
//
// Usage:
//
//	p10faults                          # default campaign on POWER10
//	p10faults -trials 4000 -seed 7     # bigger sample, different seed
//	p10faults -vts 10,50,90 -refvt 50  # custom VT sweep
//	p10faults -consequences=false      # stage-1 masking validation only
//	p10faults -chaos -trials 40        # harness self-test: forced panics,
//	                                   # transient failures and hangs; must
//	                                   # degrade gracefully and exit nonzero
//
// Validation and outcome tables go to stdout; a failure summary (trials lost
// to injected or real harness faults) goes to stderr and makes the exit
// status nonzero, so automation cannot mistake a degraded campaign for a
// clean one. The campaign is deterministic in (seed, trials, workloads) for
// any -jobs value.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"power10sim/internal/cliutil"
	"power10sim/internal/faultinject"
	"power10sim/internal/obsserver"
	"power10sim/internal/progress"
	"power10sim/internal/runner"
	"power10sim/internal/uarch"
)

func main() {
	obs := cliutil.Register(cliutil.Help{
		Metrics:   "write a metrics-registry JSON snapshot to this file",
		FlightRec: "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, watchdog kill, or drain",
		Serve:     "serve the live observability endpoints on this address (e.g. :9090)",
		CacheDir:  "persist simulation results under this directory (shared across runs)",
		RunLog:    "append one campaign-ledger record per completed trial under this directory",
		Jobs:      "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)",
	})
	var (
		trials       = flag.Int("trials", 400, "Monte Carlo trials per workload")
		seed         = flag.Uint64("seed", 42, "campaign RNG seed")
		cfgName      = flag.String("config", "POWER10", "POWER9 | POWER10 | POWER10-noMMA")
		smt          = flag.Int("smt", 1, "hardware threads per simulation")
		budget       = flag.Uint64("budget", 0, "dynamic instruction budget per workload (0 = campaign default)")
		window       = flag.Uint64("window", 0, "switching-activity window in cycles (0 = campaign default)")
		vtsFlag      = flag.String("vts", "", "comma-separated VT sweep percentages (default 10,30,50,70,90)")
		refVT        = flag.Int("refvt", 0, "reference VT%% for consequence trials (0 = sweep median)")
		consequences = flag.Bool("consequences", true, "classify captured trials (SDC/detected/hang/masked)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-simulation watchdog deadline")
		chaos        = flag.Bool("chaos", false, "inject panics/transient failures/hangs into the harness (self-test)")
	)
	flag.Parse()
	if *trials < 1 {
		cliutil.Usagef("-trials %d: must be >= 1", *trials)
	}
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	obs.Check()
	if *refVT < 0 || *refVT > 100 {
		cliutil.Usagef("-refvt %d: must be in [0,100]", *refVT)
	}
	vts, err := cliutil.ParseIntList("vts", *vtsFlag)
	if err != nil {
		cliutil.Usagef("%v", err)
	}
	for _, vt := range vts {
		if vt < 1 || vt > 100 {
			cliutil.Usagef("-vts %s: %d out of range [1,100]", *vtsFlag, vt)
		}
	}
	cfg := uarch.ConfigByName(*cfgName)
	if cfg == nil {
		cliutil.Usagef("unknown config %q", *cfgName)
	}

	// The harness wires the drain context (SIGINT/SIGTERM: in-flight
	// injections finish or cancel, a partial campaign exits nonzero), the
	// pool with its persistent cache (the upset parameters are part of the
	// content key; chaos runs bypass the disk layer inside the runner), and
	// the campaign ledger (chaos requests are excluded by the runner, so a
	// self-test never pollutes real campaign history). The bus carries
	// per-trial events for -serve and the flight recorder only: an injected
	// upset that hangs or crashes its simulation is an expected campaign
	// outcome, not a harness failure worth a stderr console line per trial.
	h := cliutil.Start(obs, cliutil.Options{Command: "p10faults"})
	defer h.Rec.DumpOnPanic()
	h.Serve(obs.Serve, obsserver.Options{})
	finish := func(exit int) {
		h.Bus.Publish(progress.Event{Kind: progress.KindSweepDone})
		os.Exit(h.Close(exit))
	}
	policy := runner.Policy{Timeout: *timeout, MaxAttempts: 3, Backoff: 10 * time.Millisecond}
	if *chaos {
		// Self-test mode: short watchdog and a retry budget smaller than the
		// forced-failure stream, so the campaign must exercise panic
		// recovery, retries, the watchdog, and graceful degradation — and
		// finish with tagged failed trials (nonzero exit) rather than crash.
		policy = runner.Policy{Timeout: time.Second, MaxAttempts: 2, Backoff: time.Millisecond}
	}
	h.Pool.SetPolicy(policy)

	cases, err := faultinject.DefaultCases()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		finish(1)
	}
	c := &faultinject.Campaign{
		Cfg:          cfg,
		Cases:        cases,
		SMT:          *smt,
		Trials:       *trials,
		Seed:         *seed,
		VTs:          vts,
		RefVT:        *refVT,
		Budget:       *budget,
		WindowCycles: *window,
		Consequences: *consequences,
		Pool:         h.Pool,
		Metrics:      h.Reg,
		Ctx:          h.Ctx,
	}
	if *chaos {
		c.Consequences = true
		c.Chaos = &runner.ChaosSpec{PanicFirst: 3, FailFirst: 3, Hang: true}
	}
	// Campaign plan is built: the server may now answer /readyz positively.
	h.Ready()

	start := time.Now()
	res, runErr := c.Run()
	// Metrics are written even on the failure path: a degraded campaign's
	// recovered-panic / retry / watchdog counters are the evidence worth
	// inspecting.
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		finish(1)
	}

	fmt.Printf("fault-injection campaign: %s, %d trials/workload, seed %d, %d latches\n",
		res.Cfg, res.Trials, res.Seed, res.TotalLatches)
	fmt.Println()
	fmt.Print(res.ValidationTable())
	if c.Consequences {
		fmt.Println()
		fmt.Print(res.OutcomeTable())
	}
	st := h.Pool.Stats()
	fmt.Fprintf(os.Stderr, "campaign: %.1fs with %d workers; pool: %d runs, %d retries, %d panics recovered, %d watchdog timeouts\n",
		time.Since(start).Seconds(), h.Pool.Workers(), st.Misses, st.Retries, st.Panics, st.Timeouts)
	exit := 0
	if s := res.FailureSummary(); s != "" {
		fmt.Fprint(os.Stderr, s)
		exit = 1
	}
	if h.Ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "campaign interrupted")
		exit = 1
	}
	finish(exit)
}
