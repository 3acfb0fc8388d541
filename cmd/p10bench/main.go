// Command p10bench regenerates the paper's tables and figures from the
// simulation substrate.
//
// Usage:
//
//	p10bench                 # run everything
//	p10bench -exp fig5       # one experiment
//	p10bench -quick          # reduced budgets
//	p10bench -jobs 4         # bound simulation parallelism (-jobs 1: serial)
//	p10bench -metrics m.json # dump the telemetry-registry snapshot
//	p10bench -trace t.json   # dump a Chrome trace (chrome://tracing, Perfetto)
//	p10bench -serve :9090    # live observability server: /metrics /status
//	                         # /events /runs /dashboard /healthz /readyz
//	                         # /debug/pprof/*
//	p10bench -runlog dir     # append a campaign-ledger record per completed
//	                         # simulation (query with p10query)
//	p10bench -list
//
// Simulations fan out across a bounded worker pool with a memoization cache,
// so figures that revisit the same (config, workload, SMT) point share one
// run. Tables are printed to stdout in catalog order and are byte-identical
// for any -jobs value and with telemetry on or off; per-experiment timing
// and pool diagnostics go to stderr.
//
// The sweep degrades gracefully: a failed simulation point renders as a
// tagged partial row and a failed experiment is skipped, with every failure
// listed in an end-of-sweep stderr summary and a nonzero exit status.
// SIGINT cancels in-flight simulations cooperatively. Telemetry files are
// written even for degraded or interrupted sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"power10sim/internal/cliutil"
	"power10sim/internal/experiments"
	"power10sim/internal/obsserver"
	"power10sim/internal/progress"
	"power10sim/internal/sampling"
	"power10sim/internal/sweep"
)

func main() {
	obs := cliutil.Register(cliutil.Help{
		Metrics:   "write a metrics-registry JSON snapshot to this file",
		Trace:     "write a Chrome trace_event JSON file to this file",
		FlightRec: "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, watchdog kill, or drain",
		Serve:     "serve the live observability endpoints on this address (e.g. :9090, 127.0.0.1:0)",
		CacheDir:  "persist simulation results under this directory (shared across runs)",
		RunLog:    "append one campaign-ledger record per completed simulation under this directory",
		Jobs:      "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)",
	})
	var (
		expName    = flag.String("exp", "", "experiment to run (default: all)")
		quick      = flag.Bool("quick", false, "reduced budgets")
		list       = flag.Bool("list", false, "list experiments")
		sampleMode = flag.String("sample-mode", "full", "full | validate: time every instruction, or run the sampled-vs-full error-bound sweep")
		sampleWl   = flag.String("sample-workloads", "", "comma-separated workload families for -sample-mode=validate (default: all families)")
	)
	flag.Parse()
	obs.Check()
	switch *sampleMode {
	case "full":
		if *sampleWl != "" {
			cliutil.Usagef("-sample-workloads requires -sample-mode=validate")
		}
	case "validate":
		// The validation sweep is its own experiment; a -exp filter would
		// either select nothing or silently skip the sweep.
		if *expName != "" {
			cliutil.Usagef("-exp cannot be combined with -sample-mode=validate")
		}
	default:
		cliutil.Usagef("-sample-mode %q: must be full | validate", *sampleMode)
	}
	cat := sweep.Catalog()
	if *list {
		sweep.List(os.Stdout, cat)
		return
	}
	// The harness owns the drain context (SIGINT/SIGTERM cancel in-flight
	// simulations cooperatively), the pool with its persistent cache and
	// campaign ledger, and the telemetry artifacts. None of it touches
	// stdout, so the byte-identical contract holds with any of it enabled.
	h := cliutil.Start(obs, cliutil.Options{Command: "p10bench"})
	defer h.Rec.DumpOnPanic()
	// The progress bus narrates the sweep to every consumer: the stderr
	// console lines, the /events SSE stream, and the /status aggregation.
	console := progress.NewConsole(h.Bus, os.Stderr)
	// Tolerant sweep: a failed simulation point (or whole experiment) is
	// recorded and reported at end of sweep instead of aborting the run, so
	// one bad point cannot void hours of completed figures.
	failures := new(experiments.FailureLog)
	h.Serve(obs.Serve, obsserver.Options{Failures: failures.Count})
	opt := experiments.Options{Quick: *quick, Jobs: h.Pool.Workers(), Runner: h.Pool,
		Metrics: h.Reg, Trace: h.Tr, Failures: failures, Progress: h.Bus}
	if *sampleMode == "validate" {
		var only []string
		if *sampleWl != "" {
			for _, n := range strings.Split(*sampleWl, ",") {
				if n = strings.TrimSpace(n); n != "" {
					only = append(only, n)
				}
			}
		}
		cat = []sweep.Experiment{{Name: "sample-validate",
			Title: "Sampling validation: sampled vs full error bounds",
			Run: func(o experiments.Options) (sweep.Renderer, error) {
				v, err := experiments.SampleValidate(o, sampling.DefaultSpec(), only)
				if err != nil {
					return nil, err
				}
				// A bound violation degrades the sweep (nonzero exit) but
				// still renders the full table for inspection.
				if berr := v.Bounds(); berr != nil {
					o.Failures.Add("sample-validate", berr)
				}
				return v, nil
			}}}
	}
	// The sweep plan (catalog order, filter, pool) is built: flip readiness
	// so /readyz distinguishes "starting" from "sweeping".
	h.Ready()
	outcome := sweep.Run(h.Ctx, os.Stdout, cat, *expName, opt, h.Reg, h.Tr)
	// Flush the console before printing the summary lines below, so stderr
	// keeps its historical order: per-experiment lines, then totals.
	console.Stop()
	if outcome.Ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *expName)
		os.Exit(h.Close(1))
	}
	st := h.Pool.Stats()
	sweep.Summary(os.Stdout, st)
	// Pool-pressure diagnostics are scheduling-dependent, so they join the
	// timing on stderr rather than the deterministic stdout summary.
	sweep.Totals(os.Stderr, st, h.Pool.Workers(), outcome.Elapsed)
	// Telemetry files are written even when the sweep degraded or was
	// interrupted: a partial run's diagnostics are exactly what you want to
	// inspect afterwards.
	os.Exit(h.Close(outcome.Report(h.Ctx, os.Stderr, failures)))
}
