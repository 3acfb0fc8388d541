// Package sweep is the shared experiment-sweep driver behind p10bench and
// p10coord. Both commands execute the same catalog through the same loop and
// print the same deterministic stdout — which is what makes the distributed
// fabric's contract checkable at all: `p10coord` piping its sweep through a
// worker fleet must produce output byte-identical to `p10bench` running
// alone, and sharing this driver removes every source of divergence except
// the execution substrate under test.
//
// The stdout contract: experiment banners and tables render in catalog
// order, and the closing runner summary depends only on the request sequence
// (cache hits and misses), never on worker count, scheduling, or where a
// simulation physically ran. Timing, pool pressure, and failure accounting
// are scheduling-dependent and stay on stderr.
package sweep

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"power10sim/internal/experiments"
	"power10sim/internal/progress"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// Renderer is the one-method surface every experiment result exposes.
type Renderer interface{ Table() string }

// Experiment is one catalog entry: a stable name (the -exp filter key), the
// stdout banner title, and the runner.
type Experiment struct {
	Name, Title string
	Run         func(experiments.Options) (Renderer, error)
}

// Wrap adapts an experiment constructor's concrete result type to Renderer.
func Wrap[T Renderer](f func(experiments.Options) (T, error)) func(experiments.Options) (Renderer, error) {
	return func(o experiments.Options) (Renderer, error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Catalog returns the paper's experiments in publication order — the order
// their tables appear on stdout.
func Catalog() []Experiment {
	return []Experiment{
		{"tableI", "Table I: chip features & efficiency projections", Wrap(experiments.TableI)},
		{"headline", "Section II-B headline: 1.3x perf at 0.5x power (2.6x perf/W)", Wrap(experiments.Headline)},
		{"fig2", "Fig. 2: optimal pipeline depth analysis", Wrap(experiments.Fig2)},
		{"fig4", "Fig. 4: per-unit design-change performance contributions", Wrap(experiments.Fig4)},
		{"fig5", "Fig. 5: DGEMM flops/cycle and core power (VSU vs MMA)", Wrap(experiments.Fig5)},
		{"fig6", "Fig. 6: ResNet-50 / BERT-Large end-to-end inference", Wrap(experiments.Fig6)},
		{"fig10", "Fig. 10: APEX core model vs chip model", Wrap(experiments.Fig10)},
		{"fig11", "Fig. 11: M1-linked power-model error vs inputs", Wrap(experiments.Fig11)},
		{"fig12", "Fig. 12: top-down vs bottom-up power models", Wrap(experiments.Fig12)},
		{"fig13", "Fig. 13: latch derating across testcase suites", Wrap(experiments.Fig13)},
		{"fig14", "Fig. 14: POWER9 vs POWER10 derating", Wrap(experiments.Fig14)},
		{"fig15", "Fig. 15: core power proxy accuracy and granularity", Wrap(experiments.Fig15)},
		{"proxies", "Section III-A: Chopstix-style proxy extraction", Wrap(experiments.ProxyStats)},
		{"apex", "Section III-C: APEX speedup and accuracy", Wrap(experiments.APEXSpeedup)},
		{"wof", "Section IV: Workload Optimized Frequency and droop control", Wrap(experiments.WOF)},
		{"socket", "Socket level: PFLY/CLY yield and up-to-3x efficiency", Wrap(experiments.Socket)},
	}
}

// Outcome summarizes one driver pass for the caller's exit-status logic.
type Outcome struct {
	// Ran counts experiments attempted (after the filter).
	Ran int
	// Failed lists experiments that returned an error.
	Failed []string
	// Elapsed is the whole sweep's wall time.
	Elapsed time.Duration
}

// Run drives the catalog in order: banner, experiment, table. A filter
// selects one experiment by name (empty runs all); ctx cancellation stops
// between experiments (in-flight simulations are canceled through the pool's
// own context). Tables go to w — the deterministic stdout stream — and every
// lifecycle event is published on opt.Progress. Publishes KindSweepDone when
// the loop ends.
func Run(ctx context.Context, w io.Writer, cat []Experiment, filter string, opt experiments.Options,
	reg *telemetry.Registry, tr *telemetry.Tracer) Outcome {
	expSeconds := telemetry.ExpBuckets(0.001, 4, 10)
	var out Outcome
	start := time.Now()
	for _, e := range cat {
		if filter != "" && e.Name != filter {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		out.Ran++
		fmt.Fprintf(w, "=== %s ===\n", e.Title)
		opt.Progress.Publish(progress.Event{Kind: progress.KindExperimentBegun, Experiment: e.Name})
		expStart := time.Now()
		sp := tr.Begin("exp:"+e.Name, "experiment")
		r, err := e.Run(opt)
		sp.End()
		elapsed := time.Since(expStart)
		reg.Counter("experiments_run_total", telemetry.L("exp", e.Name)).Inc()
		reg.Histogram("experiment_seconds", expSeconds, telemetry.L("exp", e.Name)).Observe(elapsed.Seconds())
		if err != nil {
			out.Failed = append(out.Failed, e.Name)
			opt.Progress.Publish(progress.Event{Kind: progress.KindExperimentFailed,
				Experiment: e.Name, Err: err.Error(), Elapsed: elapsed.Seconds()})
			continue
		}
		fmt.Fprint(w, r.Table())
		fmt.Fprintln(w)
		opt.Progress.Publish(progress.Event{Kind: progress.KindExperimentDone,
			Experiment: e.Name, Elapsed: elapsed.Seconds()})
	}
	out.Elapsed = time.Since(start)
	opt.Progress.Publish(progress.Event{Kind: progress.KindSweepDone, Elapsed: out.Elapsed.Seconds()})
	return out
}

// Summary renders the cache-effectiveness line that closes the sweep's
// stdout. Hits and misses depend only on the request sequence, so this line
// is part of the byte-identical contract.
func Summary(w io.Writer, st runner.Stats) {
	total := st.Hits + st.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(st.Hits) / float64(total)
	}
	fmt.Fprintf(w, "runner: %d simulation requests, %d unique runs, %d cache hits (%.1f%%)\n",
		total, st.Misses, st.Hits, pct)
}

// Totals renders the scheduling-dependent pool diagnostics (stderr).
func Totals(w io.Writer, st runner.Stats, workers int, elapsed time.Duration) {
	fmt.Fprintf(w, "total: %.1fs with %d workers, peak in-flight %d, total queue wait %.2fs\n",
		elapsed.Seconds(), workers, st.PeakInFlight, st.QueueWait.Seconds())
}

// List renders the catalog for -list: one "name title" line per
// experiment, sorted by name.
func List(w io.Writer, cat []Experiment) {
	names := make([]string, len(cat))
	for i, e := range cat {
		names[i] = fmt.Sprintf("%-10s %s", e.Name, e.Title)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(w, n)
	}
}

// Report prints the end-of-sweep failure accounting to w (stderr): every
// degraded point, every failed experiment, and an interrupted sweep. It
// returns the exit status, 1 if any of those occurred, so automation never
// mistakes partial results for a clean run.
func (o Outcome) Report(ctx context.Context, w io.Writer, failures *experiments.FailureLog) int {
	exit := 0
	if s := failures.Summary(); s != "" {
		fmt.Fprint(w, s)
		exit = 1
	}
	if len(o.Failed) > 0 {
		fmt.Fprintf(w, "%d experiment(s) failed: %v\n", len(o.Failed), o.Failed)
		exit = 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(w, "sweep interrupted")
		exit = 1
	}
	return exit
}
