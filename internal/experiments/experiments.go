// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation substrate. Each experiment returns a typed
// result with a text rendering; cmd/p10bench prints them and the repository
// root's bench harness wraps them as testing benchmarks.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Options tunes experiment cost and execution.
type Options struct {
	// Quick halves workload budgets (subject to the 4096-instruction
	// floor) for fast benchmark runs.
	Quick bool
	// Jobs bounds parallel fan-out in loops that do not go through the
	// simulation runner (the socket Monte Carlo, the APEX figure sweep):
	// 0 means GOMAXPROCS, 1 forces serial execution.
	Jobs int
	// Runner executes and memoizes every simulation issued through RunOn
	// and the batched figure loops. When nil, a process-wide shared runner
	// (GOMAXPROCS workers) is used, so repeated baseline points are
	// simulated once per process.
	Runner *runner.Runner
	// Metrics, when non-nil, receives per-batch request counters. Per-run
	// metrics come from instrumenting the Runner directly.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives a span per batched fan-out so sweeps
	// show where wall-clock goes. Nil disables tracing at zero cost.
	Trace *telemetry.Tracer
	// Failures, when non-nil, switches batched sweeps into tolerant mode:
	// a failed simulation point no longer aborts its figure — the point is
	// logged here and the figure renders a tagged partial row, so one bad
	// run cannot void an entire sweep. Nil keeps the strict legacy
	// behavior (first error aborts the batch).
	Failures *FailureLog
	// Progress, when non-nil, receives a batch_submitted event per batched
	// fan-out (per-simulation events come from the Runner's own bus; see
	// runner.SetBus). Nil — or a bus nobody subscribed to — is free.
	Progress *progress.Bus
}

// FailureLog accumulates per-point simulation failures across a tolerant
// sweep. It is safe for concurrent use; cmd/p10bench prints its summary at
// end of sweep and exits nonzero when it is non-empty.
type FailureLog struct {
	mu      sync.Mutex
	entries []string
}

// Add records one failed point.
func (l *FailureLog) Add(context string, err error) {
	if l == nil || err == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(l.entries, fmt.Sprintf("%s: %v", context, err))
	l.mu.Unlock()
}

// Count returns the number of recorded failures.
func (l *FailureLog) Count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Summary renders the failure list ("" when clean).
func (l *FailureLog) Summary() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d simulation point(s) failed:\n", len(l.entries))
	for _, e := range l.entries {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// scale applies the option's budget scaling: quick mode halves the budget.
func (o Options) scale(budget uint64) uint64 {
	if o.Quick {
		budget /= 2
	}
	if budget < 4096 {
		budget = 4096
	}
	return budget
}

// scaleWarmup leaves warmup unscaled: architectural warmup must cover the
// workload's working set regardless of how short the measurement window is
// (quick mode shortens only the measured region).
func (o Options) scaleWarmup(warmup uint64) uint64 { return warmup }

// maxSimCycles bounds any single simulation.
const maxSimCycles = 80_000_000

// sharedPool is the process-wide default runner: figures that revisit the
// same (config, workload, SMT) point — the headline, Table I, the ablation
// ladder, WOF, the socket study — share one memoized simulation.
var (
	sharedPool     *runner.Runner
	sharedPoolOnce sync.Once
)

// pool returns the runner simulations execute on.
func (o Options) pool() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	sharedPoolOnce.Do(func() { sharedPool = runner.New(0) })
	return sharedPool
}

// jobs returns the fan-out width for parallel loops outside the runner.
func (o Options) jobs() int {
	if o.Runner != nil {
		return o.Runner.Workers()
	}
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// request builds the runner request RunOn executes: in SMT mode each thread
// runs an equal share of the budget so aggregate work stays comparable to ST.
func (o Options) request(cfg *uarch.Config, w *workloads.Workload, smt int) runner.Request {
	if smt < 1 {
		smt = 1
	}
	budget := o.scale(w.Budget) / uint64(smt)
	warmup := o.scaleWarmup(w.Warmup)
	if warmup >= budget*uint64(smt) {
		warmup = budget * uint64(smt) / 2
	}
	return runner.Request{Cfg: cfg, W: w, SMT: smt, Budget: budget, Warmup: warmup,
		MaxCycles: maxSimCycles}
}

// RunOn simulates a workload on a config at an SMT level and returns the
// activity plus its power report. Execution goes through the options'
// memoizing runner: a repeated (config, workload, SMT, budget) point is
// simulated once per process.
func RunOn(cfg *uarch.Config, w *workloads.Workload, smt int, o Options) (*uarch.Activity, *power.Report, error) {
	res := o.pool().Do(o.request(cfg, w, smt))
	return res.Activity, res.Report, res.Err
}

// submit fans one batch of independent simulation requests across the
// runner under a batch span, counting the requests and publishing a
// batch_submitted event (label, when set, names the experiment). Results
// come back in request order, so batched figure loops render
// byte-identically to their original serial form.
func submit(o Options, label string, reqs []runner.Request) []runner.Result {
	if o.Trace != nil {
		sp := o.Trace.Begin(fmt.Sprintf("batch:%d-reqs", len(reqs)), "experiments")
		defer sp.End()
	}
	o.Metrics.Counter("experiments_batch_requests_total").Add(uint64(len(reqs)))
	o.Progress.Publish(progress.Event{Kind: progress.KindBatchSubmitted, Experiment: label, Count: len(reqs)})
	return o.pool().RunAll(reqs)
}

// runBatch submits a batch; the first error in request order aborts it.
func runBatch(o Options, reqs []runner.Request) ([]runner.Result, error) {
	results := submit(o, "", reqs)
	for i := range results {
		if results[i].Err != nil {
			return nil, results[i].Err
		}
	}
	return results, nil
}

// runBatchTolerant is runBatch under the graceful-degradation contract:
// with a FailureLog installed, failed points are logged and returned with
// their errors in place (callers skip them and render tagged partial rows)
// instead of aborting the whole batch. Without one it falls back to strict
// runBatch. The label contextualizes failures in the sweep summary.
func runBatchTolerant(o Options, label string, reqs []runner.Request) ([]runner.Result, error) {
	if o.Failures == nil {
		return runBatch(o, reqs)
	}
	results := submit(o, label, reqs)
	for i := range results {
		if results[i].Err != nil {
			req := reqs[i]
			ctx := label
			if req.W != nil && req.Cfg != nil {
				ctx = fmt.Sprintf("%s %s@%s/smt%d", label, req.W.Name, req.Cfg.Name, req.SMT)
			}
			o.Failures.Add(ctx, results[i].Err)
		}
	}
	return results, nil
}

// geomean of a slice.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// table is a tiny fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// sortedKeys returns a map's int keys ascending.
func sortedKeys[M ~map[int]float64](m M) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
