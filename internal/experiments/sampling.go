package experiments

// This file is the error-bound validation harness for the SimPoint-style
// interval-sampling engine (internal/sampling): every workload family is run
// twice — once full, once sampled — across both generations and all SMT
// levels, and the harness fails if any point's CPI error exceeds
// sampling.CPIErrBound or its average-power error exceeds
// sampling.PowerErrBound. cmd/p10bench exposes it as -sample-mode=validate
// and the Makefile's sample-check target runs the quick subset.

import (
	"fmt"
	"math"
	"strings"

	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// SamplePoint is one (workload, config, SMT) cell of the validation sweep.
type SamplePoint struct {
	Workload string
	Config   string
	SMT      int
	// Full-simulation ground truth.
	FullCPI   float64
	FullPower float64
	// Sampled estimate and its relative errors against ground truth.
	SampledCPI   float64
	SampledPower float64
	CPIErr       float64
	PowerErr     float64
	// Speedup is total trace instructions over timed instructions.
	Speedup float64
	// OK reports whether both errors are within the published bounds.
	OK bool
	// Err tags a point whose full or sampled simulation failed outright.
	Err error
}

// SampleValidation is the result of a sampled-vs-full validation sweep.
type SampleValidation struct {
	Spec   sampling.Spec
	Points []SamplePoint
}

// Failures counts points that failed to simulate or exceeded a bound.
func (v *SampleValidation) Failures() int {
	n := 0
	for i := range v.Points {
		if !v.Points[i].OK {
			n++
		}
	}
	return n
}

// Bounds returns a non-nil error when any point is out of bounds, so callers
// can treat the sweep as a single assertion.
func (v *SampleValidation) Bounds() error {
	if n := v.Failures(); n > 0 {
		return fmt.Errorf("sampling validation: %d of %d point(s) exceeded error bounds (CPI > %.0f%% or power > %.0f%%)",
			n, len(v.Points), sampling.CPIErrBound*100, sampling.PowerErrBound*100)
	}
	return nil
}

// Table renders the sweep with one row per point plus a geomean-speedup
// summary line.
func (v *SampleValidation) Table() string {
	t := &table{header: []string{"workload", "config", "SMT",
		"full CPI", "samp CPI", "CPI err", "full W", "samp W", "pwr err", "speedup", "status"}}
	var speedups []float64
	worstCPI, worstPow := 0.0, 0.0
	for i := range v.Points {
		p := &v.Points[i]
		if p.Err != nil {
			t.add(p.Workload, p.Config, fmt.Sprint(p.SMT),
				"-", "-", "-", "-", "-", "-", "-", "error: "+p.Err.Error())
			continue
		}
		status := "ok"
		if !p.OK {
			status = "FAIL"
		}
		t.add(p.Workload, p.Config, fmt.Sprint(p.SMT),
			f3(p.FullCPI), f3(p.SampledCPI), pct(p.CPIErr),
			f3(p.FullPower), f3(p.SampledPower), pct(p.PowerErr),
			fmt.Sprintf("%.1fx", p.Speedup), status)
		speedups = append(speedups, p.Speedup)
		worstCPI = math.Max(worstCPI, p.CPIErr)
		worstPow = math.Max(worstPow, p.PowerErr)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "bounds: CPI <= %.0f%%, power <= %.0f%% | worst CPI err %s, worst power err %s, geomean speedup %.1fx\n",
		sampling.CPIErrBound*100, sampling.PowerErrBound*100, pct(worstCPI), pct(worstPow), geomean(speedups))
	return b.String()
}

// sampleFamilies returns one representative workload per family — a streaming
// FP kernel, an MMA GEMM, a SPECint-style integer program, an end-to-end AI
// inference trace, and the synthetic power-virus stressmark — plus a map of
// per-family substitutes for configs without MMA (the MMA GEMM's outer-product
// instructions cannot retire on POWER9, so its rows there run the VSU coding
// of the same problem).
func sampleFamilies() ([]*workloads.Workload, map[string]*workloads.Workload, error) {
	daxpy := workloads.Daxpy(4096, 12)
	size := workloads.GEMMSize{M: 16, N: 64, K: 256}
	dgemm, _, err := workloads.DGEMMMMA(size)
	if err != nil {
		return nil, nil, fmt.Errorf("sample-validate: %w", err)
	}
	dgemmVSU, _, err := workloads.DGEMMVSU(size)
	if err != nil {
		return nil, nil, fmt.Errorf("sample-validate: %w", err)
	}
	var intcompute *workloads.Workload
	for _, w := range workloads.SPECintSuite() {
		if w.Name == "intcompute" {
			intcompute = w
		}
	}
	if intcompute == nil {
		return nil, nil, fmt.Errorf("sample-validate: intcompute missing from SPECint suite")
	}
	resnet, err := workloads.ResNet50(false)
	if err != nil {
		return nil, nil, fmt.Errorf("sample-validate: %w", err)
	}
	fams := []*workloads.Workload{daxpy, dgemm, intcompute, resnet, workloads.Stressmark(false)}
	return fams, map[string]*workloads.Workload{dgemm.Name: dgemmVSU}, nil
}

// SampleValidate runs the sampled-vs-full error-bound sweep: each selected
// workload family on POWER9 and POWER10 at SMT1/4/8, once through the full
// timing model and once through the sampling engine, comparing CPI and
// average core power. An empty `only` selects every family; otherwise it
// filters by workload name (unknown names are an error, so a typo cannot
// silently validate nothing). Simulation failures tag their point rather
// than aborting the sweep; bound violations are reported by Failures and
// Bounds, not as an error from this function.
func SampleValidate(o Options, spec sampling.Spec, only []string) (*SampleValidation, error) {
	fams, subs, err := sampleFamilies()
	if err != nil {
		return nil, err
	}
	if len(only) > 0 {
		byName := map[string]*workloads.Workload{}
		for _, w := range fams {
			byName[w.Name] = w
		}
		var sel []*workloads.Workload
		for _, n := range only {
			w, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("sample-validate: unknown workload %q (families: daxpy, dgemm-mma, intcompute, resnet50, stressmark)", n)
			}
			sel = append(sel, w)
		}
		fams = sel
	}
	spec = spec.Normalized()
	configs := []*uarch.Config{uarch.POWER9(), uarch.POWER10()}
	smts := []int{1, 4, 8}

	v := &SampleValidation{Spec: spec}
	// Interleaved full/sampled request pairs, one pair per point, in render
	// order: the sampled twin is the full request with the spec attached.
	// RunAll memoizes and fans out across the pool.
	var reqs []runner.Request
	for _, fam := range fams {
		for _, cfg := range configs {
			w := fam
			if sub := subs[fam.Name]; sub != nil && !cfg.HasMMA {
				w = sub
			}
			for _, smt := range smts {
				v.Points = append(v.Points, SamplePoint{Workload: w.Name, Config: cfg.Name, SMT: smt})
				full := o.request(cfg, w, smt)
				samp := full
				samp.Sample = &spec
				reqs = append(reqs, full, samp)
			}
		}
	}
	results := submit(o, "sample-validate", reqs)

	for i := range v.Points {
		p := &v.Points[i]
		full, samp := results[2*i], results[2*i+1]
		if full.Err != nil {
			p.Err = full.Err
		} else if samp.Err != nil {
			p.Err = samp.Err
		}
		if p.Err != nil {
			o.Failures.Add(fmt.Sprintf("sample-validate %s@%s/smt%d", p.Workload, p.Config, p.SMT), p.Err)
			continue
		}
		p.FullCPI = full.Activity.CPI()
		p.FullPower = full.Report.Total
		p.SampledCPI = samp.Activity.CPI()
		p.SampledPower = samp.Report.Total
		p.CPIErr = relErr(p.SampledCPI, p.FullCPI)
		p.PowerErr = relErr(p.SampledPower, p.FullPower)
		if samp.Sampling != nil {
			p.Speedup = samp.Sampling.Speedup()
		}
		p.OK = p.CPIErr <= sampling.CPIErrBound && p.PowerErr <= sampling.PowerErrBound
	}
	return v, nil
}

// relErr is |got-want|/|want|, with a zero reference meaning "exact or
// infinitely wrong".
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
