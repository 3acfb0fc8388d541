// Package pmgmt implements the core power-management infrastructure of
// Section IV: Workload Optimized Frequency (WOF), fine- and coarse-grained
// core throttling with a Digital Droop Sensor, and the hardware Core Power
// Proxy whose counters are selected by the data-driven methodology shared
// with the M1-linked power models.
package pmgmt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"power10sim/internal/mlfit"
	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
)

// ---------------------------------------------------------------------------
// Workload Optimized Frequency (Section IV-A)
// ---------------------------------------------------------------------------

// WOF computes deterministic frequency boosts: workloads whose effective
// capacitance sits below the thermal/regulation design point (set by the
// power virus) run at a proportionally higher clock, identically on any two
// parts of the same sort.
type WOF struct {
	// EnvelopeDynamic is the design-point dynamic power (effective
	// capacitance at nominal V/F) from the stressmark characterization.
	EnvelopeDynamic float64
	// Leakage at nominal voltage.
	Leakage float64
	// FmaxScale caps the boost (sort-dependent silicon limit).
	FmaxScale float64
}

// NewWOF characterizes the envelope from the stressmark's power report.
func NewWOF(stressmark *power.Report) *WOF {
	return &WOF{
		EnvelopeDynamic: stressmark.EffCap,
		Leakage:         stressmark.Leakage,
		FmaxScale:       1.3,
	}
}

// Boost returns the deterministic frequency multiplier for a workload given
// its power report at nominal V/F. Dynamic power scales ~ s^3 (voltage
// tracks frequency) and leakage ~ s; the boost uses exactly the thermal
// headroom the workload's effective-capacitance ratio exposes.
func (w *WOF) Boost(rep *power.Report) float64 {
	budget := w.EnvelopeDynamic + w.Leakage
	dyn := rep.EffCap
	leak := rep.Leakage
	if dyn <= 0 {
		return w.FmaxScale
	}
	// Solve dyn*s^3 + leak*s = budget for s >= 1.
	lo, hi := 1.0, w.FmaxScale
	if dyn+leak >= budget {
		return 1
	}
	for i := 0; i < 50; i++ {
		s := (lo + hi) / 2
		if dyn*s*s*s+leak*s > budget {
			hi = s
		} else {
			lo = s
		}
	}
	s := (lo + hi) / 2
	if s > w.FmaxScale {
		s = w.FmaxScale
	}
	return s
}

// EffCapRatio is the workload-vs-design-point effective capacitance ratio
// that feeds the PFLY/CLY analysis.
func (w *WOF) EffCapRatio(rep *power.Report) float64 {
	if w.EnvelopeDynamic == 0 {
		return 0
	}
	return rep.EffCap / w.EnvelopeDynamic
}

// ---------------------------------------------------------------------------
// Core Power Proxy (Section IV-C, Fig. 15)
// ---------------------------------------------------------------------------

// Proxy is the synthesized hardware power proxy: a small set of counters
// with non-negative weights (hardware adders) estimating core active power.
type Proxy struct {
	Model    *mlfit.LinearModel
	Counters []string
	// ActiveError is the training active-power error in percent.
	ActiveError float64
}

// hardwareImplementable reports whether a counter can be built as a simple
// event counter in the core. The model-side features that require
// latch-level visibility (per-unit busy/clock-utilization fractions) or
// post-processing (IPC) are available to the software M1-linked models but
// not to the silicon proxy — the gap between Fig. 11's <2.5% and Fig.
// 15(a)'s ~9.8% floors.
func hardwareImplementable(name string) bool {
	if len(name) >= 5 && name[:5] == "busy_" {
		return false
	}
	switch name {
	case "ipc", "flush_insts", "wrongpath_slots":
		return false
	}
	return true
}

// DesignProxy selects up to nCounters inputs from the dataset under
// hardware implementation constraints (implementable event counters only,
// non-negative coefficients), mirroring the design-space exploration that
// produced the final 16-counter POWER10 proxy.
func DesignProxy(ds *powermodel.Dataset, nCounters int) (*Proxy, error) {
	return proxyAt(ds, proxyPath(ds, nCounters), nCounters)
}

// Estimate returns the proxy's active-power estimate for a counter row.
func (p *Proxy) Estimate(counters []float64) float64 { return p.Model.Predict(counters) }

// AccuracyCurve produces Fig. 15(a) under the hardware constraints: the
// proxy designed at each counter budget, whose ActiveError is the curve's
// point. Every budget reads one greedy path walked to the largest budget,
// so the design at a budget is DesignProxy's at that budget.
func AccuracyCurve(ds *powermodel.Dataset, budgets []int) (map[int]*Proxy, error) {
	out := map[int]*Proxy{}
	if len(budgets) == 0 {
		return out, nil
	}
	path := proxyPath(ds, slices.Max(budgets))
	for _, n := range budgets {
		p, err := proxyAt(ds, path, n)
		if err != nil {
			return nil, err
		}
		out[n] = p
	}
	return out, nil
}

// proxyPath grows the counter set one input at a time, admitting only
// implementable counters and only candidates whose addition keeps every
// weight implementable (>= 0): a refit that prunes a negative weight is
// rejected. This is how the final design ends up with the full 16-counter
// budget populated rather than a pruned handful.
func proxyPath(ds *powermodel.Dataset, nCounters int) mlfit.Path {
	g, err := ds.Gram()
	if err != nil {
		return nil // no samples: no counter set is implementable
	}
	return g.Target(ds.ActiveY()).Path(nCounters, proxySelection(ds))
}

// proxySelection is the hardware proxy's selection rule on a corpus.
func proxySelection(ds *powermodel.Dataset) mlfit.Selection {
	return mlfit.Selection{
		Options:   mlfit.Options{Intercept: true, NonNegative: true, Ridge: 1e-6},
		Candidate: func(f int) bool { return hardwareImplementable(ds.Names[f]) },
		Strict:    true,
	}
}

// proxyAt returns the proxy a selection path holds at a counter budget.
func proxyAt(ds *powermodel.Dataset, path mlfit.Path, nCounters int) (*Proxy, error) {
	if nCounters <= 0 {
		return nil, errors.New("pmgmt: proxy needs at least one counter")
	}
	s, err := path.At(nCounters)
	if err != nil {
		return nil, errors.New("pmgmt: no implementable counter set found")
	}
	px := &Proxy{Model: s.Model, ActiveError: s.Error}
	for _, f := range s.Model.Features {
		px.Counters = append(px.Counters, ds.Names[f])
	}
	return px, nil
}

// GranularityError produces Fig. 15(b): the proxy's total-power prediction
// error when read at different time granularities (cycles per prediction
// window). Short windows under-sample the counters' relationship to power.
// The window does not change the simulation, so s runs once, sampled at the
// windows' greatest common divisor, and each window scores the sum of the
// base deltas over its span, the final partial window included. The
// Activity counters are plain uint64 counters, so that sum is the delta the
// window's own sampler reports.
func GranularityError(p *Proxy, cfg *uarch.Config, s trace.Stream, windows []uint64, idleFloor float64) (map[uint64]float64, error) {
	var base uint64
	for _, w := range windows {
		if w == 0 {
			return nil, errors.New("pmgmt: window 0 produced no samples")
		}
		for w != 0 {
			base, w = w, base%w
		}
	}
	out := map[uint64]float64{}
	if base == 0 {
		return out, nil
	}
	model := power.NewModel(cfg)
	type span struct {
		start          uarch.Activity // sum at the window's start
		sumAbs, sumRef float64
		n              int
	}
	spans := make([]span, len(windows))
	var sum uarch.Activity // every base delta so far
	score := func(sp *span) {
		d := sum.Sub(&sp.start)
		sp.start = sum
		ref := model.Report(&d)
		est := p.Estimate(d.Counters()) + idleFloor
		sp.sumAbs += math.Abs(est - ref.Total)
		sp.sumRef += ref.Total
		sp.n++
	}
	cb := func(cs uarch.CycleSample) {
		v, dv := sum.Vector(), cs.Delta.Vector()
		for i := range v {
			v[i] += dv[i]
		}
		sum.SetVector(v)
		for i, w := range windows {
			if sum.Cycles%w == 0 {
				score(&spans[i])
			}
		}
	}
	if _, err := uarch.Simulate(cfg, []trace.Stream{s}, 50_000_000, uarch.WithSampler(base, cb)); err != nil {
		return nil, fmt.Errorf("pmgmt: granularity run: %w", err)
	}
	for i, w := range windows {
		sp := &spans[i]
		if sum.Cycles > sp.start.Cycles {
			score(sp)
		}
		if sp.n == 0 || sp.sumRef == 0 {
			return nil, fmt.Errorf("pmgmt: window %d produced no samples", w)
		}
		out[w] = sp.sumAbs / sp.sumRef * 100
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Throttling and the Digital Droop Sensor (Section IV-B)
// ---------------------------------------------------------------------------

// ThrottleLevel is a fine-grained instruction-rate limit, expressed as the
// effective decode width the dispatch throttle allows.
type ThrottleLevel struct {
	DecodeWidth int
	IPC         float64
	Power       float64
}

// FitThrottle finds the widest dispatch setting whose power stays within
// cap, simulating the workload at each level (the fixed-frequency /
// Fmin-mode fine-grained throttle). The proxy provides the fast power
// feedback of the adaptive control loop; the reference model plays the role
// of the (slow) truth the loop converges to.
func FitThrottle(cfg *uarch.Config, mk func() trace.Stream, cap float64, maxCycles uint64) (*ThrottleLevel, []ThrottleLevel, error) {
	var levels []ThrottleLevel
	var chosen *ThrottleLevel
	for w := cfg.DecodeWidth; w >= 1; w-- {
		c := *cfg
		c.DecodeWidth = w
		if c.RetireWidth > w {
			c.RetireWidth = w + 2
		}
		res, err := uarch.Simulate(&c, []trace.Stream{mk()}, maxCycles)
		if err != nil {
			return nil, nil, err
		}
		rep := power.NewModel(&c).Report(&res.Activity)
		lvl := ThrottleLevel{DecodeWidth: w, IPC: res.IPC(), Power: rep.Total}
		levels = append(levels, lvl)
		if lvl.Power <= cap && (chosen == nil || lvl.IPC > chosen.IPC) {
			l := lvl
			chosen = &l
		}
	}
	if chosen == nil {
		return nil, levels, errors.New("pmgmt: no throttle level satisfies the power cap")
	}
	return chosen, levels, nil
}

// DDS models the per-core Digital Droop Sensor: a sub-nanosecond timing
// margin monitor that engages the coarse throttle on voltage droops caused
// by abrupt current swings.
type DDS struct {
	// R and L model the power-delivery network's resistive and inductive
	// drops (arbitrary normalized units).
	R, L float64
	// MarginThreshold is the timing margin below which the sensor fires.
	MarginThreshold float64
	// ThrottleFactor is the current reduction the coarse throttle applies.
	ThrottleFactor float64
	// ReleaseAfter is how many samples the throttle holds.
	ReleaseAfter int
}

// DefaultDDS returns a droop sensor configured like the evaluation's.
func DefaultDDS() DDS {
	return DDS{R: 0.03, L: 0.10, MarginThreshold: 0.88, ThrottleFactor: 0.55, ReleaseAfter: 4}
}

// DroopReport summarizes a droop simulation.
type DroopReport struct {
	MinMargin      float64
	Violations     int // samples below the critical margin (0.82)
	SensorFirings  int
	ThrottledSlots int
	Samples        int
}

// criticalMargin is the margin below which circuits fail timing.
const criticalMargin = 0.82

// droopDecay is the per-sample decay of the inductive droop state: a
// current step rings the power-delivery network for several samples.
const droopDecay = 0.6

// SimulateDroop runs the voltage-margin model over a per-window current
// (dynamic power) series. The inductive term persists across samples, so a
// reactive sensor that throttles the cycles after a detected droop shortens
// the excursion. With the sensor disabled, no throttling occurs.
// releaseRamp is the per-sample throttle release step: the coarse throttle
// backs off gradually so the release itself does not re-droop the rail.
const releaseRamp = 0.12

func (d DDS) SimulateDroop(current []float64, sensorEnabled bool) DroopReport {
	rep := DroopReport{MinMargin: 1, Samples: len(current)}
	var prev, droop float64
	limit := 1.0
	hold := 0
	for _, iRaw := range current {
		if limit < 1 {
			rep.ThrottledSlots++
		}
		i := iRaw * limit
		di := i - prev
		droop = droop*droopDecay + di
		if droop < 0 {
			droop = 0
		}
		margin := 1 - d.R*i - d.L*droop
		prev = i
		if margin < rep.MinMargin {
			rep.MinMargin = margin
		}
		if margin < criticalMargin {
			rep.Violations++
		}
		if sensorEnabled && margin < d.MarginThreshold && hold == 0 && limit == 1 {
			rep.SensorFirings++
			limit = d.ThrottleFactor
			hold = d.ReleaseAfter
		} else if hold > 0 {
			hold--
		} else if limit < 1 {
			limit += releaseRamp
			if limit > 1 {
				limit = 1
			}
		}
	}
	return rep
}

// CurrentSeries derives a normalized per-window current series from a
// workload run (dynamic power as the current proxy).
func CurrentSeries(cfg *uarch.Config, mk func() trace.Stream, window uint64, maxCycles uint64) ([]float64, error) {
	model := power.NewModel(cfg)
	var out []float64
	cb := func(s uarch.CycleSample) {
		if s.Delta.Cycles == 0 {
			return
		}
		out = append(out, model.Report(&s.Delta).EffCap)
	}
	if _, err := uarch.Simulate(cfg, []trace.Stream{mk()}, maxCycles, uarch.WithSampler(window, cb)); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// MMA power gate control (Section IV-A)
// ---------------------------------------------------------------------------

// MMAGate models the firmware-controlled MMA power gate with proactive
// wake hints.
type MMAGate struct {
	// IdleBeforeOff is how long the MMA must be idle before gating.
	IdleBeforeOff uint64
	// WakeLatency is the power-on delay without a hint.
	WakeLatency uint64
}

// GateReport summarizes gate behaviour over an activity window series.
type GateReport struct {
	GatedWindows  int
	ActiveWindows int
	WakeStalls    uint64 // cycles lost waking without hints
}

// Evaluate replays MMA activity windows through the gate policy. hinted
// marks windows preceded by a wake hint (OpMMAWake), which hides the wake
// latency.
func (g MMAGate) Evaluate(mmaActive []bool, hinted []bool) GateReport {
	var rep GateReport
	idle := g.IdleBeforeOff // start gated
	for i, active := range mmaActive {
		if active {
			rep.ActiveWindows++
			if idle >= g.IdleBeforeOff {
				// Unit was gated; waking costs latency unless hinted.
				if i >= len(hinted) || !hinted[i] {
					rep.WakeStalls += g.WakeLatency
				}
			}
			idle = 0
		} else {
			idle++
			if idle >= g.IdleBeforeOff {
				rep.GatedWindows++
			}
		}
	}
	return rep
}
