// Command p10trace runs the trace-generation methodologies of Section III-A
// on a workload: Chopstix-style proxy extraction, or Tracepoints selection
// with the Simpoint baseline comparison.
//
// Usage:
//
//	p10trace -workload compress -mode proxies
//	p10trace -workload interp -mode tracepoints
//
// Result tables go to stdout; progress and diagnostic messages go to stderr
// (the p10bench convention), so stdout stays pipeable.
package main

import (
	"flag"
	"fmt"
	"os"

	"power10sim/internal/cliutil"
	"power10sim/internal/proxy"
	"power10sim/internal/tracepoints"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func main() {
	var (
		wlName = flag.String("workload", "compress", "SPECint-like workload name")
		mode   = flag.String("mode", "proxies", "proxies | tracepoints")
	)
	flag.Parse()
	// Flag validation happens before any simulation work: a bad mode is a
	// usage error (exit 2), caught up front rather than after profiling.
	switch *mode {
	case "proxies", "tracepoints":
	default:
		cliutil.Usagef("unknown mode %q (proxies | tracepoints)", *mode)
	}

	var w *workloads.Workload
	for _, cand := range workloads.SPECintSuite() {
		if cand.Name == *wlName {
			w = cand
		}
	}
	if w == nil {
		cliutil.Usagef("unknown workload %q (use a SPECint-suite name)", *wlName)
	}

	switch *mode {
	case "proxies":
		fmt.Fprintf(os.Stderr, "extracting proxies from %s...\n", w.Name)
		res, err := proxy.Extract(w, proxy.DefaultOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchmark %s: %d proxies, %.1f%% coverage of %d dynamic instructions\n",
			res.Source, len(res.Proxies), res.Coverage*100, res.TotalDynamic)
		for _, p := range res.Proxies {
			fmt.Printf("  %-22s region [%4d,%4d)  %6d insts  weight %.3f\n",
				p.Name, p.Start, p.End, p.Len(), p.Weight)
		}
	case "tracepoints":
		cfg := uarch.POWER10()
		fmt.Fprintf(os.Stderr, "profiling %s on %s...\n", w.Name, cfg.Name)
		prof, err := tracepoints.Collect(w, cfg, 2000)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Progress/diagnostic line: stderr, so stdout carries only the
		// tracepoints-vs-simpoints result table.
		fmt.Fprintf(os.Stderr, "profiled %s: %d epochs over %d instructions, CPI %.3f\n",
			w.Name, len(prof.Epochs), len(prof.Recs), prof.Total.CPI())
		tp, err := tracepoints.SelectTracepoints(prof, 4)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sp, err := tracepoints.SelectSimpoints(prof, 5000, len(tp.Segments))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		te, err := tp.CPIError(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		se, err := sp.CPIError(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("tracepoints: %2d segments, CPI projection error %.2f%%\n", len(tp.Segments), te*100)
		fmt.Printf("simpoints:   %2d segments, CPI projection error %.2f%%\n", len(sp.Segments), se*100)
	}
}
