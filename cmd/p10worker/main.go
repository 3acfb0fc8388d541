// Command p10worker executes simulation work units leased from a p10coord
// coordinator.
//
// Usage:
//
//	p10worker -coord http://host:9170             # join the fleet
//	p10worker -coord http://host:9170 -jobs 4     # bound local parallelism
//	p10worker -coord ... -cachedir cache          # share the persistent run cache
//	p10worker -coord ... -chaos kill:3            # fault harness: die after 3 units
//
// A worker is deliberately stateless: it registers, long-polls for leases,
// runs each unit through the same bounded runner pool (and optional disk
// cache / campaign ledger) that p10bench and p10sim use, heartbeats while
// executing, and reports results. Everything that makes the fleet
// fault-tolerant lives in the coordinator — a worker that dies mid-batch
// simply stops heartbeating and its units are re-dispatched elsewhere.
//
// -chaos injects worker-side misbehavior for harness testing: "kill[:n]"
// exits the process without reporting after n units, "stall[:n]" withholds a
// result past the lease TTL and then delivers it late (exercising the
// coordinator's accept-once path), "corrupt[:n]" reports a structurally
// invalid result once.
//
// SIGINT/SIGTERM drain: the current batch finishes and is reported, the
// worker deregisters (releasing any leases immediately instead of waiting
// for TTL expiry), the ledger flushes, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"

	"power10sim/internal/cliutil"
	"power10sim/internal/fabric"
	"power10sim/internal/progress"
)

func main() {
	obs := cliutil.Register(cliutil.Help{
		Metrics:   "write a metrics-registry JSON snapshot on exit",
		FlightRec: "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, chaos kill, or a lost lease",
		CacheDir:  "persist simulation results under this directory (shared with other workers and p10bench)",
		RunLog:    "append one campaign-ledger record per executed simulation under this directory",
		Jobs:      "max concurrent simulations (0 = GOMAXPROCS)",
	})
	var (
		coordURL  = flag.String("coord", "", "coordinator base URL (e.g. http://127.0.0.1:9170)")
		name      = flag.String("name", "", "advertised worker name (default: hostname-pid)")
		chaosSpec = flag.String("chaos", "", "misbehave on purpose: kill[:n] | stall[:n] | corrupt[:n]")
	)
	flag.Parse()
	if *coordURL == "" {
		cliutil.Usagef("-coord is required")
	}
	obs.Check()
	chaos, err := fabric.ParseChaos(*chaosSpec)
	if err != nil {
		cliutil.Usagef("%v", err)
	}
	// SIGTERM drains rather than kills: Run finishes and reports the current
	// batch, then deregisters so the coordinator reclaims nothing by timeout.
	// The registry is always live so the coordinator's federated scrape has
	// worker-side series to merge; the -metrics file write stays opt-in.
	h := cliutil.Start(obs, cliutil.Options{Command: "p10worker", Registry: true})
	defer h.Rec.DumpOnPanic()
	console := progress.NewConsole(h.Bus, os.Stderr)
	w := fabric.NewWorker(h.Pool, fabric.WorkerOptions{
		Coordinator: *coordURL,
		Name:        *name,
		Chaos:       chaos,
		Registry:    h.Reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "p10worker: "+format+"\n", args...)
		},
		// A lost lease means the coordinator gave this worker's units away —
		// exactly the "what was I doing when the fleet moved on?" moment the
		// flight record exists for.
		OnLeaseExpired: func(keys []string) {
			h.Rec.Note("lease lost: %v", keys)
			_ = h.Rec.Dump("lease lost")
		},
		// The chaos kill path exits without unwinding; dump the record first so
		// the harness (and scripts/trace_check.sh) can post-mortem the corpse.
		// Exit code 3 is part of the chaos contract — keep it.
		Exit: func(code int) {
			h.Rec.Note("chaos kill: exiting %d", code)
			_ = h.Rec.Dump("chaos kill")
			os.Exit(code)
		},
	})
	h.Ready()
	runErr := w.Run(h.Ctx)
	console.Stop()
	exit := 0
	if runErr != nil && h.Ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "p10worker: %v\n", runErr)
		exit = 1
	}
	st := h.Pool.Stats()
	fmt.Fprintf(os.Stderr, "p10worker: executed %d unique run(s), %d memo + %d disk hit(s)\n",
		st.Misses-st.DiskHits, st.Hits, st.DiskHits)
	os.Exit(h.Close(exit))
}
