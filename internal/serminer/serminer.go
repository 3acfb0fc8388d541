// Package serminer implements the SERMiner methodology (Section III-E):
// power-aware soft-error vulnerability analysis. Because POWER10's
// fine-grained clock gating refreshes latch data every clocked cycle,
// SERMiner uses clock utilization (switching) from latch-level simulation as
// the vulnerability proxy instead of data residency. Latches are classified
// as statically derated (never switch in any workload, configuration latches
// excepted), runtime derated (switching below the Vulnerability Threshold),
// or vulnerable — driving the selective-protection RAS policy.
package serminer

import (
	"fmt"
	"sort"

	"power10sim/internal/rtl"
	"power10sim/internal/uarch"
)

// Run is one workload's latch-level observation.
type Run struct {
	Name string
	// Switching is the per-bucket data-switching activity (clock
	// utilization x toggle probability), parallel to the latch model's
	// buckets.
	Switching []float64
}

// Study accumulates runs over one core configuration.
type Study struct {
	Model *rtl.LatchModel
	Runs  []Run
}

// NewStudy prepares a derating study for a configuration.
func NewStudy(cfg *uarch.Config) *Study {
	return &Study{Model: rtl.NewLatchModel(cfg)}
}

// AddRun records a workload's activity. dataToggle overrides the default
// datapath toggle estimate when the workload's operand content is known
// (microprobe zero- vs random-init testcases); pass <= 0 to use the default.
func (s *Study) AddRun(name string, a *uarch.Activity, dataToggle float64) {
	st := s.Model.Analyze(a)
	sw := make([]float64, len(s.Model.Buckets))
	for i, b := range s.Model.Buckets {
		if b.Config || b.Weight == 0 {
			continue
		}
		toggle := dataToggle
		if toggle <= 0 {
			toggle = rtl.DefaultToggle(a.BusyFraction(b.Unit))
		}
		sw[i] = st.BucketUtil[i] * toggle
	}
	s.Runs = append(s.Runs, Run{Name: name, Switching: sw})
}

// Report is the derating outcome for one scope (a single workload or the
// whole-study aggregate).
type Report struct {
	Name string
	// StaticDerating is the latch fraction that never switches
	// (configuration latches excepted — they hold state and stay
	// potentially vulnerable).
	StaticDerating float64
	// RuntimeDerating maps VT percent -> latch fraction with nonzero
	// switching below the vulnerability threshold.
	RuntimeDerating map[int]float64
	// Vulnerable maps VT percent -> latch fraction requiring protection.
	Vulnerable map[int]float64
}

// quantile returns the q-quantile (0..1) of positive values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64{}, vals...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// maxSwitching returns each bucket's maximum switching across all runs.
func (s *Study) maxSwitching() []float64 {
	maxSwitch := make([]float64, len(s.Model.Buckets))
	for _, r := range s.Runs {
		for i, v := range r.Switching {
			if v > maxSwitch[i] {
				maxSwitch[i] = v
			}
		}
	}
	return maxSwitch
}

// Thresholds computes the study's vulnerability thresholds: for each VT, the
// switching value at the (100-VT)th percentile of the aggregate (max across
// workloads) positive per-latch switching distribution. Per-workload reports
// and cross-machine comparisons (Fig. 14) all reference one threshold set so
// that "comparable resilience" means comparable absolute switching — a
// zero-data testcase's quieter latches really are less vulnerable.
func (s *Study) Thresholds(vts []int) map[int]float64 {
	var pool []float64
	for i, v := range s.maxSwitching() {
		if v > 0 && !s.Model.Buckets[i].Config {
			pool = append(pool, v)
		}
	}
	out := map[int]float64{}
	for _, vt := range vts {
		out[vt] = quantile(pool, 1-float64(vt)/100)
	}
	return out
}

// derateThresholds classifies with explicit thresholds (nil = self-derived).
func (s *Study) derateThresholds(name string, maxSwitch []float64, vts []int, thr map[int]float64) Report {
	rep := Report{
		Name:            name,
		RuntimeDerating: map[int]float64{},
		Vulnerable:      map[int]float64{},
	}
	var total, static float64
	var positive []float64
	var positiveWeights []float64
	var configLatches float64
	for i, b := range s.Model.Buckets {
		w := float64(b.Latches)
		total += w
		switch {
		case b.Config:
			// Set at init, holds state: potentially vulnerable.
			configLatches += w
		case maxSwitch[i] <= 0:
			static += w
		default:
			positive = append(positive, maxSwitch[i])
			positiveWeights = append(positiveWeights, w)
		}
	}
	if total == 0 {
		return rep
	}
	rep.StaticDerating = static / total
	for _, vt := range vts {
		// VT=x%: latches whose switching is within the top x-th percentile
		// of observed positive switching values are vulnerable.
		threshold, ok := thr[vt]
		if !ok {
			threshold = quantile(positive, 1-float64(vt)/100)
		}
		var runtimeDerated, vulnerable float64
		for i, v := range positive {
			if VulnerableAt(false, v, threshold) {
				vulnerable += positiveWeights[i]
			} else {
				runtimeDerated += positiveWeights[i]
			}
		}
		vulnerable += configLatches
		rep.RuntimeDerating[vt] = runtimeDerated / total
		rep.Vulnerable[vt] = vulnerable / total
	}
	return rep
}

// PerWorkload produces Fig. 13's per-suite derating bars, classifying each
// workload's switching against the study-wide thresholds.
func (s *Study) PerWorkload(vts []int) []Report {
	thr := s.Thresholds(vts)
	out := make([]Report, 0, len(s.Runs))
	for _, r := range s.Runs {
		out = append(out, s.derateThresholds(r.Name, r.Switching, vts, thr))
	}
	return out
}

// Aggregate produces Fig. 14's whole-suite view: a latch's switching is its
// maximum across all workloads (it must be quiet everywhere to be derated).
// Pass explicit thresholds for cross-machine comparisons; nil self-derives.
func (s *Study) Aggregate(vts []int, thresholds map[int]float64) (Report, error) {
	if len(s.Runs) == 0 {
		return Report{}, fmt.Errorf("serminer: no runs recorded")
	}
	return s.derateThresholds("aggregate", s.maxSwitching(), vts, thresholds), nil
}

// TotalDerating returns static + runtime derating at a VT (higher is better:
// fewer latches need protection).
func (r *Report) TotalDerating(vt int) float64 {
	return r.StaticDerating + r.RuntimeDerating[vt]
}

// VulnerableAt is the study's latch classification rule, exported so the
// fault-injection engine applies the exact same test per trial that the
// analytic derating applies per bucket: configuration latches always hold
// potentially vulnerable state; other latches are vulnerable when their
// switching is positive and at or above the VT threshold. Keeping this rule
// in one place is what makes the injection-measured non-masked fraction
// directly comparable to the analytic vulnerable fraction.
func VulnerableAt(config bool, switching, threshold float64) bool {
	if config {
		return true
	}
	return switching > 0 && switching >= threshold
}
