// Command p10coord runs the paper sweep with simulation execution farmed out
// to a fleet of p10worker processes over the fault-tolerant fabric protocol.
//
// Usage:
//
//	p10coord -listen :9170                  # serve the fabric + observability API
//	p10coord -listen :9170 -exp fig5        # one experiment
//	p10coord -quick -min-workers 2          # wait for 2 workers, reduced budgets
//	p10coord -cachedir cache -runlog runs   # share cache/ledger formats with p10bench
//
// The coordinator owns the sweep plan and the merge; workers own execution.
// Each unique simulation point becomes one content-keyed work unit, leased to
// a worker under a heartbeat TTL. A worker that crashes, stalls, or returns a
// corrupt result simply loses its lease: the unit is re-dispatched (bounded,
// jittered) and the first structurally valid result wins. Because workers
// ship back the deterministic simulation ground truth (activity counters, not
// derived reports), the merged stdout is byte-identical to a single-process
// `p10bench` run regardless of fleet size, failures, or completion order.
//
// The -listen address serves both the worker-facing fabric endpoints
// (/fabric/*) and the human-facing observability surface (/status /events
// /dashboard /metrics ...).
//
// SIGINT/SIGTERM drain cooperatively: in-flight leases finish or expire,
// workers are told to stop polling, the run ledger and telemetry flush, and a
// partial sweep exits nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"power10sim/internal/cliutil"
	"power10sim/internal/experiments"
	"power10sim/internal/fabric"
	"power10sim/internal/obsserver"
	"power10sim/internal/progress"
	"power10sim/internal/sweep"
)

func main() {
	obs := cliutil.Register(cliutil.Help{
		Metrics:   "write a metrics-registry JSON snapshot to this file (federated: includes worker-pushed series)",
		Trace:     "write the merged fleet Chrome trace (clock-corrected unit lifecycles) to this file",
		FlightRec: "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, or drain",
		CacheDir:  "persist simulation results under this directory (shared across runs and with p10bench)",
		RunLog:    "append one campaign-ledger record per completed simulation under this directory",
		Jobs:      "max simulation points in flight (0 = GOMAXPROCS)",
	})
	var (
		listenAddr  = flag.String("listen", "127.0.0.1:9170", "serve the fabric worker API and observability endpoints on this address")
		expName     = flag.String("exp", "", "experiment to run (default: all)")
		quick       = flag.Bool("quick", false, "reduced budgets")
		list        = flag.Bool("list", false, "list experiments")
		minWorkers  = flag.Int("min-workers", 1, "wait for this many live workers before starting the sweep (0 = start immediately)")
		waitFor     = flag.Duration("worker-wait", 2*time.Minute, "give up if -min-workers have not registered within this window")
		leaseTTL    = flag.Duration("lease-ttl", fabric.DefaultLeaseTTL, "worker lease TTL; a silent worker loses its units after this")
		maxAttempts = flag.Int("max-attempts", fabric.DefaultMaxAttempts, "dispatch attempts per unit before it fails permanently")
	)
	flag.Parse()
	obs.Check()
	if *listenAddr == "" {
		cliutil.Usagef("-listen is required: workers reach the coordinator through it")
	}
	if *minWorkers < 0 {
		cliutil.Usagef("-min-workers %d: must be >= 0", *minWorkers)
	}
	if *maxAttempts < 1 {
		cliutil.Usagef("-max-attempts %d: must be >= 1", *maxAttempts)
	}
	cat := sweep.Catalog()
	if *list {
		sweep.List(os.Stdout, cat)
		return
	}
	// SIGINT/SIGTERM drain the whole fabric cooperatively: the pool context
	// unblocks waiting submissions, the coordinator refuses new leases and
	// tells polling workers to stop, and the harness still flushes the
	// ledger and telemetry. A drained partial sweep exits nonzero. The
	// coordinator always carries a registry: the observability server is not
	// optional here (workers connect through it), so fabric health is always
	// scrapeable.
	h := cliutil.Start(obs, cliutil.Options{Command: "p10coord", Registry: true, ExternalTrace: true})
	defer h.Rec.DumpOnPanic()
	console := progress.NewConsole(h.Bus, os.Stderr)
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		Bus:         h.Bus,
		Registry:    h.Reg,
	})
	// The artifacts are fleet-wide: the federated metrics snapshot (fleet +
	// per-worker series) and the merged clock-corrected fleet trace.
	h.Metrics = func(w io.Writer) error { return coord.FederatedSnapshot().WriteJSON(w) }
	h.Trace = coord.WriteTrace
	h.Quiesce = func() { drainFleet(coord) }
	// Every cache-missing simulation the sweep requests is now dispatched to
	// the fleet instead of simulated in-process; cache hits and chaos
	// requests never leave the coordinator.
	h.Pool.SetExecutor(coord.Execute)
	failures := new(experiments.FailureLog)
	h.Serve(*listenAddr, obsserver.Options{
		Failures: failures.Count,
		Fleet:    coord.Fleet,
		Fabric:   coord.Handler(),
		// The coordinator is the only process that can render the fleet-wide
		// views: the merged clock-corrected trace and the federated scrape.
		FleetTrace:        coord.WriteTrace,
		FederatedSnapshot: coord.FederatedSnapshot,
	})
	fmt.Fprintf(os.Stderr, "p10coord: fabric + observability on %s\n", h.Server.URL())
	if !waitForWorkers(h.Ctx, coord, *minWorkers, *waitFor) {
		console.Stop()
		fmt.Fprintf(os.Stderr, "p10coord: %d worker(s) did not register within %s\n", *minWorkers, *waitFor)
		os.Exit(h.Close(1))
	}
	h.Ready()
	outcome := sweep.Run(h.Ctx, os.Stdout, cat, *expName, experiments.Options{
		Quick: *quick, Jobs: h.Pool.Workers(), Runner: h.Pool,
		Failures: failures, Progress: h.Bus,
	}, h.Reg, nil)
	console.Stop()
	if outcome.Ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *expName)
		os.Exit(h.Close(1))
	}
	st := h.Pool.Stats()
	sweep.Summary(os.Stdout, st)
	sweep.Totals(os.Stderr, st, h.Pool.Workers(), outcome.Elapsed)
	fleet := coord.Fleet()
	fmt.Fprintf(os.Stderr, "fabric: %d units done, %d failed, %d requeues, %d duplicate results across %d worker(s)\n",
		fleet.Queue.Done, fleet.Queue.Failed, fleet.Queue.Requeues, fleet.Queue.Duplicates, len(fleet.Workers))
	os.Exit(h.Close(outcome.Report(h.Ctx, os.Stderr, failures)))
}

// drainFleet stops handing out leases, then gives the fleet a grace window
// to observe the Closing lease response and deregister before the ledger
// closes and the HTTP surface drops. A worker mid-poll sees it within
// milliseconds, one between polls within its poll interval; past the window
// the worker's own unreachable bound takes over.
func drainFleet(coord *fabric.Coordinator) {
	coord.Close()
	deadline := time.Now().Add(8 * time.Second)
	for liveWorkers(coord) > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
	}
}

// liveWorkers counts the workers the coordinator currently sees as live.
func liveWorkers(coord *fabric.Coordinator) int {
	live := 0
	for _, w := range coord.Fleet().Workers {
		if w.State == "live" {
			live++
		}
	}
	return live
}

// waitForWorkers blocks until n workers are live (or n == 0), the window
// expires, or the context is canceled. Leases are only served to registered
// workers, so starting the sweep with an empty fleet would just park every
// unit in the queue; failing fast is kinder to automation.
func waitForWorkers(ctx context.Context, coord *fabric.Coordinator, n int, window time.Duration) bool {
	if n == 0 {
		return true
	}
	deadline := time.Now().Add(window)
	logged := false
	for {
		if liveWorkers(coord) >= n {
			return true
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return false
		}
		if !logged {
			fmt.Fprintf(os.Stderr, "p10coord: waiting for %d worker(s) to register...\n", n)
			logged = true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(100 * time.Millisecond):
		}
	}
}
