// Command p10explore is the active-learning design-space explorer: it trains
// a surrogate model from a campaign ledger, cross-validates it against
// held-out simulator ground truth, and sweeps thousands of hypothetical
// POWER10-derived configurations through the model — simulating for real only
// the handful of points the model is least sure about.
//
// Operations (-op):
//
//	train     fit a surrogate from a -runlog ledger and save it to -model
//	validate  train on a deterministic split of the ledger and report
//	          held-out per-target errors; -gate PCT exits 3 when the CPI or
//	          power MAPE exceeds it (the make explore-check bound)
//	explore   sweep -points generated configurations through a -model,
//	          ranking by -rank (epi: energy per instruction ascending, i.e.
//	          perf-per-watt descending; or cpi) with 95% confidence
//	          intervals; -sims N simulates the N most uncertain points for
//	          real, retrains on the grown corpus, and re-predicts
//
// Output is byte-stable for fixed inputs: the design space is a pure
// function of (-points, -seed), training is deterministic, floats render
// with fixed precision, and ties rank by point index. Two invocations over
// the same ledger and model emit identical bytes — which make explore-check
// enforces. Exit status: 0 success, 1 runtime error, 2 usage error, 3
// validation gate failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/surrogate"
	"power10sim/internal/workloads"
)

// maxSimCycles bounds any single fallback simulation (the experiment
// harness's bound).
const maxSimCycles = 80_000_000

type options struct {
	op          string
	runlogDir   string
	model       string
	maxFeatures int
	holdout     float64
	seed        uint64
	gate        float64
	jsonOut     string
	points      int
	workload    string
	budget      uint64
	warmup      uint64
	rank        string
	topK        int
	sims        int
	jobs        int
	threshold   float64
	minServed   float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("p10explore", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	fs.StringVar(&o.op, "op", "", "operation: train, validate, explore")
	fs.StringVar(&o.runlogDir, "runlog", "", "campaign ledger directory (training corpus)")
	fs.StringVar(&o.model, "model", "", "surrogate model file (output for train, input for explore)")
	fs.IntVar(&o.maxFeatures, "max-features", 0, "forward-selection cap per target (0 = default)")
	fs.Float64Var(&o.holdout, "holdout", 0.25, "validate: held-out fraction of the corpus")
	fs.Uint64Var(&o.seed, "seed", 1, "validate: split seed; explore: design-space seed")
	fs.Float64Var(&o.gate, "gate", 0, "validate: exit 3 if held-out CPI or power MAPE exceeds this percentage (0 = report only)")
	fs.StringVar(&o.jsonOut, "json", "", "also write the operation's result as JSON to this file")
	fs.IntVar(&o.points, "points", 5000, "explore: design-space size")
	fs.StringVar(&o.workload, "workload", "daxpy", "explore: catalog workload to evaluate")
	fs.Uint64Var(&o.budget, "budget", 50000, "explore: per-thread instruction budget of each hypothetical run")
	fs.Uint64Var(&o.warmup, "warmup", 2000, "explore: warmup instructions excluded from measurement")
	fs.StringVar(&o.rank, "rank", "epi", "explore: ranking metric (epi, cpi)")
	fs.IntVar(&o.topK, "k", 20, "explore: table rows to print")
	fs.IntVar(&o.sims, "sims", 0, "explore: simulate this many most-uncertain points for real and retrain (needs -runlog)")
	fs.IntVar(&o.jobs, "jobs", 0, "explore: max concurrent fallback simulations (0 = GOMAXPROCS)")
	fs.Float64Var(&o.threshold, "threshold", surrogate.DefaultThreshold, "confidence gate: relative error above which a prediction is declined")
	fs.Float64Var(&o.minServed, "min-served", 0.5, "validate: with -gate, exit 3 when fewer than this fraction of held-out rows clear the confidence gate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if code, err := validateOpts(o); err != nil {
		fmt.Fprintf(errw, "p10explore: %v (see -help)\n", err)
		return code
	}
	switch o.op {
	case "train":
		return opTrain(o, out, errw)
	case "validate":
		return opValidate(o, out, errw)
	default:
		return opExplore(o, out, errw)
	}
}

func validateOpts(o options) (int, error) {
	switch o.op {
	case "train", "validate":
		if o.runlogDir == "" {
			return 2, fmt.Errorf("-op %s needs -runlog", o.op)
		}
		if o.op == "train" && o.model == "" {
			return 2, fmt.Errorf("-op train needs -model")
		}
	case "explore":
		if o.model == "" {
			return 2, fmt.Errorf("-op explore needs -model")
		}
		if o.points < 1 {
			return 2, fmt.Errorf("-points %d: must be >= 1", o.points)
		}
		if o.rank != "epi" && o.rank != "cpi" {
			return 2, fmt.Errorf("-rank %q: want epi or cpi", o.rank)
		}
		if o.topK < 1 {
			return 2, fmt.Errorf("-k %d: must be >= 1", o.topK)
		}
		if o.sims > 0 && o.runlogDir == "" {
			return 2, fmt.Errorf("-sims needs -runlog (the corpus the retrain grows)")
		}
	case "":
		return 2, fmt.Errorf("-op is required")
	default:
		return 2, fmt.Errorf("-op %q: unknown operation", o.op)
	}
	if o.holdout <= 0 || o.holdout >= 1 {
		return 2, fmt.Errorf("-holdout %v: want a fraction in (0,1)", o.holdout)
	}
	if o.minServed < 0 || o.minServed > 1 {
		return 2, fmt.Errorf("-min-served %v: want a fraction in [0,1]", o.minServed)
	}
	return 0, nil
}

// loadCorpus reads the ledger and prints the accounting line every corpus
// consumer leads with: how many records trained and why the rest did not.
func loadCorpus(o options, out, errw io.Writer) (*surrogate.Corpus, error) {
	c, err := surrogate.LoadCorpus(o.runlogDir, surrogate.CorpusOptions{})
	if err != nil {
		return nil, err
	}
	st := c.Stats
	fmt.Fprintf(out, "corpus: %d records scanned, %d trainable\n", st.Scanned, st.Used)
	fmt.Fprintf(out, "skipped: %d failed, %d upset, %d predicted, %d duplicate, %d unknown-config, %d unknown-workload, %d degenerate\n",
		st.SkippedFailed, st.SkippedUpset, st.SkippedPredicted, st.SkippedDuplicate,
		st.SkippedUnknownConfig, st.SkippedUnknownWorkload, st.SkippedDegenerate)
	if st.Scan.Corrupt > 0 || st.Scan.WrongSchema > 0 || st.Scan.UnterminatedTail {
		fmt.Fprintf(errw, "p10explore: ledger degraded: %d corrupt, %d wrong-schema, torn tail %v (continuing)\n",
			st.Scan.Corrupt, st.Scan.WrongSchema, st.Scan.UnterminatedTail)
	}
	return c, nil
}

func trainOpts(o options) surrogate.TrainOptions {
	return surrogate.TrainOptions{MaxFeatures: o.maxFeatures}
}

func opTrain(o options, out, errw io.Writer) int {
	c, err := loadCorpus(o, out, errw)
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	m, err := surrogate.Train(c, trainOpts(o))
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	printModel(out, m)
	if err := m.Save(o.model); err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "saved %s\n", o.model)
	return 0
}

func printModel(out io.Writer, m *surrogate.Model) {
	fmt.Fprintf(out, "model: %d training rows, %d features, %d workloads\n",
		m.TrainRows, m.Features, len(m.Workloads))
	fmt.Fprintf(out, "%-16s %9s\n", "target", "loo_rmse")
	for _, t := range m.Targets {
		fmt.Fprintf(out, "%-16s %9.4f\n", t.Name, t.LOORMSE)
	}
}

func opValidate(o options, out, errw io.Writer) int {
	c, err := loadCorpus(o, out, errw)
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	v, err := surrogate.Validate(c, o.holdout, o.seed, o.threshold, trainOpts(o))
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "split: %d train, %d test, %d skipped-vocab (holdout %.0f%%, seed %d)\n",
		v.TrainRows, v.TestRows, v.SkippedVocab, o.holdout*100, o.seed)
	servedPct := 100 * float64(v.ServedRows) / float64(v.TestRows)
	fmt.Fprintf(out, "served: %d of %d held-out rows (%.1f%%) clear the %.1f%% confidence gate; the rest fall through to real simulation\n",
		v.ServedRows, v.TestRows, servedPct, 100*v.Threshold)
	fmt.Fprintf(out, "%-16s %8s %9s %8s %11s %11s\n", "target", "mape%", "rms_log", "worst%", "served_mape%", "served_worst%")
	for _, te := range v.Targets {
		fmt.Fprintf(out, "%-16s %8.2f %9.4f %8.2f %11.2f %11.2f\n",
			te.Name, te.MAPE, te.RMSLog, te.Worst, te.ServedMAPE, te.ServedWorst)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, v); err != nil {
			fmt.Fprintf(errw, "p10explore: %v\n", err)
			return 1
		}
	}
	if o.gate > 0 {
		if float64(v.ServedRows) < o.minServed*float64(v.TestRows) {
			fmt.Fprintf(errw, "p10explore: surrogate serves only %.1f%% of held-out rows, below the %.0f%% floor\n",
				servedPct, o.minServed*100)
			return 3
		}
		for _, name := range []string{"cpi", "power"} {
			te := v.TargetError(name)
			if te == nil {
				fmt.Fprintf(errw, "p10explore: no %s error to gate on\n", name)
				return 1
			}
			if te.ServedMAPE > o.gate {
				fmt.Fprintf(errw, "p10explore: held-out served %s MAPE %.2f%% exceeds the %.2f%% gate\n",
					name, te.ServedMAPE, o.gate)
				return 3
			}
		}
		fmt.Fprintf(out, "gate: served held-out cpi and power within %.2f%% at %.1f%% coverage\n", o.gate, servedPct)
	}
	return 0
}

func opExplore(o options, out, errw io.Writer) int {
	m, err := surrogate.Load(o.model)
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	build, ok := workloads.CatalogEntry(o.workload)
	if !ok {
		fmt.Fprintf(errw, "p10explore: workload %q is not in the catalog\n", o.workload)
		return 2
	}
	w := build()
	opt := surrogate.ExploreOptions{
		Points:    o.points,
		Seed:      o.seed,
		Workload:  w,
		Budget:    o.budget,
		Warmup:    o.warmup,
		MaxCycles: maxSimCycles,
		Rank:      o.rank,
		TopK:      o.topK,
		Train:     trainOpts(o),
		Threshold: o.threshold,
	}
	if o.sims > 0 {
		c, err := loadCorpus(o, out, errw)
		if err != nil {
			fmt.Fprintf(errw, "p10explore: %v\n", err)
			return 1
		}
		pool := runner.New(o.jobs)
		led, err := runlog.Open(o.runlogDir, runlog.Options{Command: "p10explore"})
		if err != nil {
			fmt.Fprintf(errw, "p10explore: %v\n", err)
			return 1
		}
		defer led.Close()
		pool.SetRunLog(led)
		opt.MaxSims = o.sims
		opt.Runner = pool
		opt.Corpus = c
	}
	res, err := surrogate.Explore(m, opt)
	if err != nil {
		fmt.Fprintf(errw, "p10explore: %v\n", err)
		return 1
	}
	printModel(out, res.Model)
	fmt.Fprintf(out, "space: %d points, seed %d, workload %s, rank %s\n",
		res.Total, o.seed, o.workload, o.rank)
	simPct := 100 * float64(res.Simulated) / float64(res.Total)
	fmt.Fprintf(out, "simulated: %d of %d points (%.2f%%), %d failed, retrained %v\n",
		res.Simulated, res.Total, simPct, res.SimFailed, res.Retrained)
	gated := res.Total - res.Simulated
	coverage := 0.0
	if gated > 0 {
		coverage = 100 * float64(res.WithinGate) / float64(gated)
	}
	fmt.Fprintf(out, "uncertainty: mean %.2f%%, max %.2f%%; %.1f%% of predicted points within the %.1f%% gate\n",
		100*res.MeanRelStd, 100*res.MaxRelStd, coverage, 100*o.threshold)
	fmt.Fprintf(out, "%4s  %-14s %3s %8s %8s %9s  %-21s %7s  %s\n",
		"rank", "config", "smt", "cpi", "power", "epi", "epi_ci95", "relstd", "src")
	for i, p := range res.Ranked {
		src := "pred"
		if p.Simulated {
			src = "sim"
		}
		ci := fmt.Sprintf("[%8.4f,%8.4f]", p.EPILo, p.EPIHi)
		fmt.Fprintf(out, "%4d  %-14s %3d %8.4f %8.4f %9.4f  %-21s %6.2f%%  %s\n",
			i+1, p.Name, p.SMT, p.CPI, p.Power, p.EPI, ci, 100*p.RelStd, src)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			fmt.Fprintf(errw, "p10explore: %v\n", err)
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
