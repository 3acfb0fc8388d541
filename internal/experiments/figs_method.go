package experiments

import (
	"fmt"

	"power10sim/internal/apex"
	"power10sim/internal/mlfit"
	"power10sim/internal/pipedepth"
	"power10sim/internal/powermodel"
	"power10sim/internal/proxy"
	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// ---------------------------------------------------------------------------
// Fig. 2: optimal pipeline depth
// ---------------------------------------------------------------------------

// Fig2Result holds the BIPS-vs-FO4 curves per power target.
type Fig2Result struct {
	FO4s    []int
	Targets []float64
	// BIPS[t][d] is performance at Targets[t], FO4s[d].
	BIPS [][]float64
	// Optima[t] is the best FO4 per target.
	Optima []int
}

// Fig2 sweeps the analytical pipeline model.
func Fig2(Options) (*Fig2Result, error) {
	p := pipedepth.DefaultParams()
	res := &Fig2Result{
		FO4s:    pipedepth.DefaultFO4Range(),
		Targets: []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
	}
	for _, tgt := range res.Targets {
		var row []float64
		for _, op := range p.Sweep(tgt, res.FO4s) {
			row = append(row, op.BIPS)
		}
		res.BIPS = append(res.BIPS, row)
		res.Optima = append(res.Optima, p.Optimal(tgt, res.FO4s).FO4)
	}
	return res, nil
}

// Table renders Fig. 2.
func (r *Fig2Result) Table() string {
	t := &table{header: []string{"power target", "optimal FO4", "BIPS at optimum"}}
	for i, tgt := range r.Targets {
		best := 0.0
		for _, b := range r.BIPS[i] {
			if b > best {
				best = b
			}
		}
		t.add(fmt.Sprintf("%.1fx", tgt), fmt.Sprintf("%d", r.Optima[i]), f3(best))
	}
	return t.String() + "paper: optimum stable at 27 FO4 across the 0.5x-1.0x power targets\n"
}

// ---------------------------------------------------------------------------
// Fig. 10: APEX core model vs chip model
// ---------------------------------------------------------------------------

// Fig10Point pairs the two models' operating points for one workload.
type Fig10Point struct {
	Workload   string
	Core, Chip apex.PowerIPCPoint
	// MemBound marks workloads with significant off-L2 traffic.
	MemBound bool
}

// Fig10Result is the Power/IPC scatter of Fig. 10.
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 runs the SPECint-like suite in SMT2 on the APEX core (infinite L2)
// and chip models. The per-workload extractions are independent and fan out
// across the options' job count; points are collected in suite order.
func Fig10(o Options) (*Fig10Result, error) {
	cfg := uarch.POWER10()
	suite := workloads.SPECintSuite()
	// The core-vs-chip pairs run epoch-windowed simulations outside the
	// Request shape, so the figure is persisted as one blob keyed on every
	// input: config, program content, and the scaled per-thread budgets.
	fp := fmt.Sprintf("%#v|interval=5000|maxcycles=%d", *cfg, uint64(maxSimCycles))
	for _, w := range suite {
		fp += fmt.Sprintf("|%s|budget=%d|warmup=%d",
			runner.WorkloadFingerprint(w), o.scale(w.Budget)/2, w.Warmup)
	}
	return runner.CachedJSON(o.pool(), "fig10", fp, func() (*Fig10Result, error) {
		points := make([]Fig10Point, len(suite))
		errs := make([]error, len(suite))
		runner.ForEach(o.jobs(), len(suite), func(i int) {
			w := suite[i]
			mk := func() []trace.Stream {
				budget := o.scale(w.Budget) / 2
				return []trace.Stream{
					trace.NewVMStream(w.Prog, budget),
					trace.NewVMStream(w.Prog, budget),
				}
			}
			core, chip, err := apex.CoreVsChip(cfg, w.Name, mk, 5000, maxSimCycles,
				uarch.WithWarmup(w.Warmup))
			if err != nil {
				errs[i] = fmt.Errorf("fig10 %s: %w", w.Name, err)
				return
			}
			memBound := chip.IPC < core.IPC*0.85
			points[i] = Fig10Point{Workload: w.Name, Core: core, Chip: chip, MemBound: memBound}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return &Fig10Result{Points: points}, nil
	})
}

// Table renders Fig. 10.
func (r *Fig10Result) Table() string {
	t := &table{header: []string{"workload", "core IPC", "core power", "chip IPC", "chip power", "memory-bound"}}
	for _, p := range r.Points {
		mb := ""
		if p.MemBound {
			mb = "yes"
		}
		t.add(p.Workload, f3(p.Core.IPC), f3(p.Core.Power), f3(p.Chip.IPC), f3(p.Chip.Power), mb)
	}
	return t.String() + "paper: memory-bound workloads shift substantially between core and chip models\n"
}

// ---------------------------------------------------------------------------
// Fig. 11 / Fig. 12: M1-linked power models
// ---------------------------------------------------------------------------

// Fig11Result is the error-vs-inputs study across modeling constraints.
type Fig11Result struct {
	Inputs []int
	// Curves maps constraint-set name -> error per input budget (%).
	Curves map[string]map[int]float64
}

// modelInputs enumerates the shared counter/power corpus: the workload set,
// the epoch length, and a content fingerprint over both plus the config —
// the blob-cache key every model-building figure derives from. The
// fingerprint is computable without running anything, so a warm sweep can
// skip straight to a cached figure result.
func modelInputs(cfg *uarch.Config, o Options) ([]*workloads.Workload, uint64, string) {
	ws := workloads.SPECintSuite()
	ws = append(ws, workloads.Stressmark(true), workloads.ActiveIdle())
	epoch := uint64(2500)
	if o.Quick {
		epoch = 4000
	}
	fp := fmt.Sprintf("%#v|epoch=%d", *cfg, epoch)
	for _, w := range ws {
		fp += "|" + runner.WorkloadFingerprint(w)
	}
	return ws, epoch, fp
}

// ModelDataset builds the shared counter/power corpus, fanning the
// per-workload epoch collection across the options' job count. The corpus is
// persisted through the runner's blob cache, so the three figures sharing it
// collect it once per cache directory, not once per figure per process.
func ModelDataset(cfg *uarch.Config, o Options) (*powermodel.Dataset, error) {
	ws, epoch, fp := modelInputs(cfg, o)
	return runner.CachedJSON(o.pool(), "modeldataset", fp, func() (*powermodel.Dataset, error) {
		return powermodel.CollectJobs(cfg, ws, epoch, o.jobs())
	})
}

// Fig11 fits top-down models at increasing input budgets under different
// modeling methods/constraints. Both the corpus and the greedy
// counter-selection fits are deterministic functions of the fingerprinted
// inputs, so the whole figure is blob-cached as one artifact.
func Fig11(o Options) (*Fig11Result, error) {
	cfg := uarch.POWER10()
	_, _, fp := modelInputs(cfg, o)
	return runner.CachedJSON(o.pool(), "fig11", fp, func() (*Fig11Result, error) {
		ds, err := ModelDataset(cfg, o)
		if err != nil {
			return nil, err
		}
		return Fig11Fits(ds)
	})
}

// Fig11Fits fits Fig. 11's error curves on a model corpus.
func Fig11Fits(ds *powermodel.Dataset) (*Fig11Result, error) {
	res := &Fig11Result{
		Inputs: []int{1, 2, 4, 8, 16, 24},
		Curves: map[string]map[int]float64{},
	}
	constraints := map[string]mlfit.Options{
		"ols":          {Intercept: true},
		"ridge":        {Intercept: true, Ridge: 0.5},
		"non-negative": {Intercept: true, NonNegative: true},
		"no-intercept": {},
	}
	for name, opt := range constraints {
		curve, err := powermodel.ErrorCurve(ds, res.Inputs, opt)
		if err != nil {
			return nil, err
		}
		res.Curves[name] = curve
	}
	return res, nil
}

// Table renders Fig. 11.
func (r *Fig11Result) Table() string {
	t := &table{header: []string{"inputs", "ols", "ridge", "non-negative", "no-intercept"}}
	for _, n := range r.Inputs {
		t.add(fmt.Sprintf("%d", n),
			f2(r.Curves["ols"][n]), f2(r.Curves["ridge"][n]),
			f2(r.Curves["non-negative"][n]), f2(r.Curves["no-intercept"][n]))
	}
	return t.String() + "active-power error (%); paper: falls with inputs, <2.5% at maximum inputs\n"
}

// Fig12Result is the top-down vs bottom-up model comparison.
type Fig12Result struct {
	powermodel.Comparison
	BottomUpEvents int
	Samples        int
}

// Fig12 fits both model styles on the same corpus and cross-validates.
func Fig12(o Options) (*Fig12Result, error) {
	cfg := uarch.POWER10()
	_, _, fp := modelInputs(cfg, o)
	return runner.CachedJSON(o.pool(), "fig12", fp, func() (*Fig12Result, error) {
		ds, err := ModelDataset(cfg, o)
		if err != nil {
			return nil, err
		}
		return Fig12Fits(ds)
	})
}

// Fig12Fits fits both model styles on a model corpus and cross-validates
// them.
func Fig12Fits(ds *powermodel.Dataset) (*Fig12Result, error) {
	td, err := powermodel.FitTopDown(ds, 16, mlfit.Options{Intercept: true})
	if err != nil {
		return nil, err
	}
	bu, err := powermodel.FitBottomUp(ds, 3, mlfit.Options{Intercept: true})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Comparison:     powermodel.Compare(td, bu, ds),
		BottomUpEvents: bu.EventsUsed,
		Samples:        len(ds.Samples),
	}, nil
}

// Table renders Fig. 12.
func (r *Fig12Result) Table() string {
	t := &table{header: []string{"metric", "measured", "paper"}}
	t.add("mean |topdown - bottomup|", f2(r.MeanAbsDiffPct)+"%", "3.42%")
	t.add("model correlation", f3(r.Correlation), "~1 (correlation plot)")
	t.add("bottom-up events used", fmt.Sprintf("%d (39 components)", r.BottomUpEvents), "72 events / 39 components")
	t.add("traces evaluated", fmt.Sprintf("%d", r.Samples), "1480")
	return t.String()
}

// ---------------------------------------------------------------------------
// Proxy-workload extraction (Section III-A)
// ---------------------------------------------------------------------------

// ProxyStatsResult summarizes the Chopstix-style extraction.
type ProxyStatsResult struct {
	*proxy.SuiteResult
	MaxSnippet int
}

// ProxyStats extracts proxies from the whole suite.
func ProxyStats(o Options) (*ProxyStatsResult, error) {
	opt := proxy.DefaultOptions()
	if o.Quick {
		opt.ProfileBudget = 150_000
	}
	sr, err := proxy.ExtractSuite(workloads.SPECintSuite(), opt, o.jobs())
	if err != nil {
		return nil, err
	}
	res := &ProxyStatsResult{SuiteResult: sr}
	for _, pb := range sr.PerBenchmark {
		for _, p := range pb.Proxies {
			if p.Len() > res.MaxSnippet {
				res.MaxSnippet = p.Len()
			}
		}
	}
	return res, nil
}

// Table renders the proxy statistics.
func (r *ProxyStatsResult) Table() string {
	t := &table{header: []string{"benchmark", "proxies", "coverage"}}
	for _, pb := range r.PerBenchmark {
		t.add(pb.Source, fmt.Sprintf("%d", len(pb.Proxies)), pct(pb.Coverage))
	}
	t.add("TOTAL", fmt.Sprintf("%d", r.TotalProxies),
		fmt.Sprintf("%s (min %s, max %s)", pct(r.MeanCoverage), pct(r.MinCoverage), pct(r.MaxCoverage)))
	return t.String() +
		fmt.Sprintf("largest snippet %d instructions (paper: up to 22K; 1935 proxies; coverage 41-99%%, avg ~70%%)\n", r.MaxSnippet)
}

// ---------------------------------------------------------------------------
// APEX speedup (Section III-C)
// ---------------------------------------------------------------------------

// APEXResult is the accelerated-power-extraction study.
type APEXResult struct {
	Speedup        float64
	SignalsTracked int
	Extractions    int
	OnTheFlyPower  float64
	ReferencePower float64
}

// APEXSpeedup measures the extraction speedup and cross-validates the fast
// path against the reference flow.
func APEXSpeedup(o Options) (*APEXResult, error) {
	w := workloads.Compress()
	run, err := apex.Extract(uarch.POWER10(),
		[]trace.Stream{trace.NewVMStream(w.Prog, o.scale(w.Budget))},
		5000, maxSimCycles, uarch.WithWarmup(w.Warmup))
	if err != nil {
		return nil, err
	}
	return &APEXResult{
		Speedup:        run.Speedup(),
		SignalsTracked: run.SignalsTracked,
		Extractions:    len(run.Extractions),
		OnTheFlyPower:  run.AveragePower(),
		ReferencePower: run.ReferencePower(),
	}, nil
}

// Table renders the APEX study.
func (r *APEXResult) Table() string {
	t := &table{header: []string{"metric", "measured", "paper"}}
	t.add("speedup vs software RTLSim", fmt.Sprintf("%.0fx", r.Speedup), "~5000x")
	t.add("signal groups instrumented", fmt.Sprintf("%d", r.SignalsTracked), "~8M signals (full RTL)")
	t.add("batch extractions", fmt.Sprintf("%d", r.Extractions), "configurable interval")
	t.add("on-the-fly power", f3(r.OnTheFlyPower), "identical accuracy")
	t.add("reference-flow power", f3(r.ReferencePower), "identical accuracy")
	return t.String()
}
