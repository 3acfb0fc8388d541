// Package powermodel implements the M1-linked counter-based power models of
// Section III-D: the timing model's performance counters are systematically
// selected (greedy forward selection under input-count constraints) to
// predict the reference (Einspower-analog) power. Two formulations are
// built, as in the paper: a top-down core model predicting total core active
// power from a handful of counters (Fig. 11), and a bottom-up model with one
// small counter model per macro component — 39 components whose per-model
// inputs union to far fewer events than the top-down model consumes
// (Fig. 12). Both are validated against each other and the reference.
package powermodel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"power10sim/internal/mlfit"
	"power10sim/internal/power"
	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Sample is one (counter vector, power) observation.
type Sample struct {
	Workload string
	Counters []float64
	// Active is the workload-dependent power (total minus the
	// configuration's active-idle floor).
	Active float64
	// Components is the 39-way bottom-up reference breakdown.
	Components []float64
}

// Dataset is the model-building corpus. Every fit on it reads one Gram
// matrix, built on first use; the samples must not change after the first
// fit.
type Dataset struct {
	Config  *uarch.Config
	Names   []string // counter names (feature order)
	Samples []Sample
	// IdleFloor is the config's active-idle power subtracted from totals.
	IdleFloor float64

	gramOnce sync.Once
	gram     *mlfit.Gram
	gramErr  error
}

// Gram returns the corpus's Gram matrix, built on the first call. Safe for
// concurrent use.
func (d *Dataset) Gram() (*mlfit.Gram, error) {
	d.gramOnce.Do(func() { d.gram, d.gramErr = mlfit.NewGram(d.X()) })
	return d.gram, d.gramErr
}

// X returns the feature matrix.
func (d *Dataset) X() [][]float64 {
	out := make([][]float64, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].Counters
	}
	return out
}

// ActiveY returns the active-power targets.
func (d *Dataset) ActiveY() []float64 {
	out := make([]float64, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].Active
	}
	return out
}

// componentY returns the target vector of one component.
func (d *Dataset) componentY(ci int) []float64 {
	out := make([]float64, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].Components[ci]
	}
	return out
}

// Collect builds a dataset by running each workload with epoch sampling:
// every epoch contributes one sample, so a modest workload list yields the
// large and behaviourally diverse corpus the methodology needs.
func Collect(cfg *uarch.Config, ws []*workloads.Workload, epochCycles uint64) (*Dataset, error) {
	return CollectJobs(cfg, ws, epochCycles, 1)
}

// CollectJobs is Collect with the per-workload epoch simulations fanned
// across up to jobs goroutines. Samples are concatenated in workload order,
// so the dataset is identical for any jobs value.
func CollectJobs(cfg *uarch.Config, ws []*workloads.Workload, epochCycles uint64, jobs int) (*Dataset, error) {
	if len(ws) == 0 {
		return nil, errors.New("powermodel: no workloads")
	}
	type perWorkload struct {
		samples   []Sample
		idleFloor float64
		err       error
	}
	collected := make([]perWorkload, len(ws))
	runner.ForEach(jobs, len(ws), func(i int) {
		w := ws[i]
		// One model per goroutine: Report is read-only on the model, but a
		// private instance keeps the proof local.
		model := power.NewModel(cfg)
		pw := &collected[i]
		cb := func(s uarch.CycleSample) {
			d := s.Delta
			if d.Instructions == 0 {
				return
			}
			rep := model.Report(&d)
			if pw.idleFloor == 0 {
				pw.idleFloor = rep.ActiveIdle
			}
			pw.samples = append(pw.samples, Sample{
				Workload:   w.Name,
				Counters:   d.Counters(),
				Active:     rep.Total - rep.ActiveIdle,
				Components: rep.Components,
			})
		}
		_, err := uarch.Simulate(cfg,
			[]trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
			100_000_000, uarch.WithWarmup(w.Warmup), uarch.WithSampler(epochCycles, cb))
		if err != nil {
			pw.err = fmt.Errorf("powermodel: %s: %w", w.Name, err)
		}
	})
	ds := &Dataset{Config: cfg, Names: append([]string{}, uarch.CounterNames...)}
	for i := range collected {
		pw := &collected[i]
		if pw.err != nil {
			return nil, pw.err
		}
		if ds.IdleFloor == 0 {
			ds.IdleFloor = pw.idleFloor
		}
		ds.Samples = append(ds.Samples, pw.samples...)
	}
	if len(ds.Samples) < 10 {
		return nil, fmt.Errorf("powermodel: only %d samples collected", len(ds.Samples))
	}
	return ds, nil
}

// TopDown is the coarse-grained core power model.
type TopDown struct {
	Model  *mlfit.LinearModel
	Inputs int
	// TrainError is the mean absolute error in % of mean active power.
	TrainError float64
}

// FitTopDown builds the top-down model with at most nInputs counters.
func FitTopDown(ds *Dataset, nInputs int, opt mlfit.Options) (*TopDown, error) {
	g, err := ds.Gram()
	if err != nil {
		return nil, err
	}
	s, err := g.Target(ds.ActiveY()).Path(nInputs, mlfit.Selection{Options: opt}).At(nInputs)
	if err != nil {
		return nil, err
	}
	return &TopDown{Model: s.Model, Inputs: len(s.Model.Features), TrainError: s.Error}, nil
}

// Predict returns the model's active-power estimate for a counter row.
func (t *TopDown) Predict(row []float64) float64 { return t.Model.Predict(row) }

// ErrorCurve produces Fig. 11: active-power error versus input budget, for a
// given modeling constraint set. Every budget reads one greedy path walked
// to the largest budget.
func ErrorCurve(ds *Dataset, inputCounts []int, opt mlfit.Options) (map[int]float64, error) {
	out := map[int]float64{}
	if len(inputCounts) == 0 {
		return out, nil
	}
	g, err := ds.Gram()
	if err != nil {
		return nil, err
	}
	path := g.Target(ds.ActiveY()).Path(slices.Max(inputCounts), mlfit.Selection{Options: opt})
	for _, n := range inputCounts {
		s, err := path.At(n)
		if err != nil {
			return nil, err
		}
		out[n] = s.Error
	}
	return out, nil
}

// BottomUp is the fine-grained per-component model set.
type BottomUp struct {
	Components []*mlfit.LinearModel // parallel to power.ComponentNames
	// EventsUsed is the number of distinct counters across all component
	// models (the paper's bottom-up model uses 72 events for 39 components).
	EventsUsed int
}

// FitBottomUp builds one small model per macro component, each limited to
// maxPerComponent inputs ("the few key performance events driving the power
// of each particular component").
func FitBottomUp(ds *Dataset, maxPerComponent int, opt mlfit.Options) (*BottomUp, error) {
	if len(ds.Samples) == 0 {
		return nil, errors.New("powermodel: empty dataset")
	}
	g, err := ds.Gram()
	if err != nil {
		return nil, err
	}
	bu := &BottomUp{}
	events := map[int]bool{}
	for ci := range power.ComponentNames {
		y := ds.componentY(ci)
		var nonzero bool
		for _, v := range y {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			bu.Components = append(bu.Components, nil)
			continue
		}
		s, err := g.Target(y).Path(maxPerComponent, mlfit.Selection{Options: opt}).At(maxPerComponent)
		if err != nil {
			return nil, fmt.Errorf("powermodel: component %s: %w", power.ComponentNames[ci], err)
		}
		bu.Components = append(bu.Components, s.Model)
		for _, f := range s.Model.Features {
			events[f] = true
		}
	}
	bu.EventsUsed = len(events)
	return bu, nil
}

// Predict sums the component models, yielding total power; subtracting the
// dataset idle floor aligns it with the top-down active-power scale.
func (b *BottomUp) Predict(row []float64) float64 {
	var sum float64
	for _, m := range b.Components {
		if m != nil {
			sum += m.Predict(row)
		}
	}
	return sum
}

// PredictActive returns the bottom-up active-power estimate.
func (b *BottomUp) PredictActive(row []float64, idleFloor float64) float64 {
	return b.Predict(row) - idleFloor
}

// Comparison quantifies the Fig. 12 cross-validation of the two models.
type Comparison struct {
	// MeanAbsDiffPct is the average |topdown - bottomup| as a percentage
	// of mean active power (paper: 3.42%).
	MeanAbsDiffPct float64
	// Correlation between the two models' per-sample estimates.
	Correlation float64
	// TopDownError / BottomUpError vs the Einspower reference.
	TopDownError  float64
	BottomUpError float64
}

// Compare evaluates both models on a dataset.
func Compare(td *TopDown, bu *BottomUp, ds *Dataset) Comparison {
	var diffs, meanActive float64
	tdPred := make([]float64, len(ds.Samples))
	buPred := make([]float64, len(ds.Samples))
	var buErr float64
	for i, s := range ds.Samples {
		tdPred[i] = td.Predict(s.Counters)
		buPred[i] = bu.PredictActive(s.Counters, ds.IdleFloor)
		diffs += math.Abs(tdPred[i] - buPred[i])
		buErr += math.Abs(buPred[i] - s.Active)
		meanActive += s.Active
	}
	n := float64(len(ds.Samples))
	meanActive /= n
	return Comparison{
		MeanAbsDiffPct: diffs / n / meanActive * 100,
		Correlation:    mlfit.Correlation(tdPred, buPred),
		TopDownError:   td.TrainError,
		BottomUpError:  buErr / n / meanActive * 100,
	}
}
