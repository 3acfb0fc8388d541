// Command p10power is the designer deep-dive view of the power methodology:
// it runs a workload and prints the full Einspower-style report — the
// 39-component breakdown, the Powerminer-style latch switching statistics
// (clock-enabled fraction, potential vs observed switching, ghost
// switching), and the per-unit busy profile the clock-gating discipline is
// judged by.
//
// Usage:
//
//	p10power -workload compress -config POWER10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"power10sim/internal/cliutil"
	"power10sim/internal/power"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func main() {
	var (
		wlName  = flag.String("workload", "compress", "workload name")
		cfgName = flag.String("config", "POWER10", "POWER9 | POWER10 | POWER10-noMMA")
		smt     = flag.Int("smt", 1, "hardware threads")
		topN    = flag.Int("top", 15, "components to list")
	)
	flag.Parse()
	// Bad flag values are usage errors (exit 2, the cliutil convention),
	// distinct from runtime failures' exit 1.
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	if *topN < 1 {
		cliutil.Usagef("-top %d: must be >= 1", *topN)
	}

	w, ok := workloads.Catalog()[*wlName]
	if !ok {
		cliutil.Usagef("unknown workload %q", *wlName)
	}
	cfg := uarch.ConfigByName(*cfgName)
	if cfg == nil {
		cliutil.Usagef("unknown config %q", *cfgName)
	}

	var streams []trace.Stream
	for i := 0; i < *smt; i++ {
		streams = append(streams, trace.NewVMStream(w.Prog, w.Budget/uint64(*smt)))
	}
	res, err := uarch.Simulate(cfg, streams, 80_000_000, uarch.WithWarmup(w.Warmup))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a := &res.Activity
	model := power.NewModel(cfg)
	rep := model.Report(a)

	fmt.Printf("%s on %s (SMT%d): IPC %.3f, power %.3f\n\n", w.Name, cfg.Name, *smt, a.IPC(), rep.Total)
	fmt.Printf("Einspower categories: clock %.3f  switching %.3f (ghost %.4f)  array %.3f  leakage %.3f\n",
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
	fmt.Printf("top %d of %d components:\n", *topN, len(comps))
	for i, c := range comps {
		if i >= *topN {
			break
		}
		fmt.Printf("  %-16s %8.4f  (%4.1f%%)\n", c.name, c.p, c.p/rep.Total*100)
	}

	lstats := model.Latch.Analyze(a)
	fmt.Printf("\nPowerminer latch statistics (%d latches):\n", lstats.TotalLatches)
	fmt.Printf("  clock-enabled fraction   %.3f  (gating efficiency %.2f)\n",
		lstats.ClockEnabledFraction, model.Latch.GatingEff)
	fmt.Printf("  potential switching      %.4f\n", lstats.PotentialSwitchRatio)
	fmt.Printf("  observed switching       %.4f\n", lstats.ObservedSwitchRatio)
	fmt.Printf("  ghost switching          %.5f (factor %.2f)\n",
		lstats.GhostSwitchRatio, model.Latch.GhostFactor)

	fmt.Println("\nper-unit busy fractions:")
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		fmt.Printf("  %-12s %5.1f%%\n", u, a.BusyFraction(u)*100)
	}
}
