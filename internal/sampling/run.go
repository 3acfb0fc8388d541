package sampling

import (
	"fmt"
	"math"

	"power10sim/internal/isa"
	"power10sim/internal/power"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
)

// Meta is the sampled-run summary that rides alongside the extrapolated
// Activity: what was classified, what was actually simulated, and the
// per-metric confidence intervals. It is JSON-serializable so the runner's
// persistent cache can store it next to the activity payload.
type Meta struct {
	Spec      Spec `json:"spec"`
	Intervals int  `json:"intervals"`
	K         int  `json:"k"`
	// Windows is the number of representative windows actually simulated
	// (up to Spec.RepsPerCluster per cluster with nonzero ROI weight).
	Windows    int    `json:"windows"`
	SMT        int    `json:"smt"`
	TotalInsts uint64 `json:"total_insts"`
	// ROIInsts is the instruction coverage of the extrapolation: the
	// region-of-interest (everything after the request's warmup boundary)
	// across threads. Equal to TotalInsts for warmup-free runs.
	ROIInsts uint64 `json:"roi_insts"`
	// SimulatedInsts counts instructions that went through the *timed*
	// simulator (measured windows plus timed warmup prefixes, across
	// threads). Functional warming is not counted: it runs no timing model.
	SimulatedInsts uint64 `json:"simulated_insts"`
	// CPI / AvgPower are the extrapolated whole-run estimates; the HalfWidth
	// fields are 95% confidence half-intervals from the cluster-weighted
	// dispersion of the representative metrics (see DESIGN.md).
	CPI            float64 `json:"cpi"`
	CPIHalfWidth   float64 `json:"cpi_half_width"`
	AvgPower       float64 `json:"avg_power"`
	PowerHalfWidth float64 `json:"power_half_width"`
}

// Speedup returns the effective simulation speedup: trace instructions the
// estimate covers per instruction actually timed.
func (m *Meta) Speedup() float64 {
	if m.SimulatedInsts == 0 {
		return 0
	}
	return float64(m.TotalInsts) / float64(m.SimulatedInsts)
}

// Estimate is a completed sampled run: extrapolated whole-run counters, the
// power report computed from them, and the sampling metadata.
type Estimate struct {
	// Activity is the cluster-weight extrapolation of every counter to the
	// whole run (rounded to integers).
	Activity uarch.Activity
	// Report is the power model applied to the extrapolated activity —
	// exactly how the full path derives power from a run's counters.
	Report *power.Report
	Meta   Meta
	Plan   *Plan
}

// Run phase-classifies prog's dynamic trace (budget instructions per thread)
// and estimates the behavior of an smt-thread simulation on cfg by simulating
// one representative interval per phase. warmup is the measurement warmup in
// total instructions across threads (runner.Request.Warmup semantics): the
// extrapolation covers only the region of interest after it, exactly like a
// full run under uarch.WithWarmup. extra options (e.g. uarch.WithContext for
// cancellation) are applied to every representative simulation before the
// engine's own warmup option.
//
// The SMT model mirrors the experiment harness: smt hardware threads each
// run an identical copy of the workload, so one per-thread trace classifies
// all of them and each representative is simulated at the requested SMT
// level with smt copies of its window.
// staggerMinPCs gates the SMT thread stagger on the measured interval's
// static footprint: intervals touching fewer distinct PCs are tight loops
// whose lockstep copies replay a real run faithfully, and staggering them
// desynchronizes the loop steady state instead (see simWindow). The cut
// sits between the streaming kernels (daxpy 12, stressmark 26 PCs per
// 2k-instruction interval) and phase-structured code (dgemm 48, resnet 131).
const staggerMinPCs = 32

func Run(cfg *uarch.Config, prog *isa.Program, budget, warmup uint64, smt int, maxCycles uint64, spec Spec, extra ...uarch.SimOption) (*Estimate, error) {
	if smt < 1 {
		smt = 1
	}
	plan, err := BuildPlan(prog, budget, spec)
	if err != nil {
		return nil, err
	}
	spec = plan.Spec

	// The region of interest starts at the per-thread warmup boundary.
	// Cluster weights are each phase's instruction share *inside* the ROI;
	// a phase living entirely in the warmup region gets weight zero and is
	// never simulated.
	roi := warmup / uint64(smt)
	if roi >= plan.TotalInsts {
		return nil, fmt.Errorf("sampling: warmup %d consumes the whole %d-instruction trace",
			warmup, plan.TotalInsts*uint64(smt))
	}
	roiIns := make([]uint64, plan.K())
	for i := range plan.Intervals {
		iv := &plan.Intervals[i]
		if iv.End <= roi {
			continue
		}
		lo := max(iv.Start, roi)
		roiIns[iv.Cluster] += iv.End - lo
	}
	totalROI := plan.TotalInsts - roi
	weights := make([]float64, plan.K())
	for c := range weights {
		weights[c] = float64(roiIns[c]) / float64(totalROI)
	}

	// Pass 2+3, interleaved: simulate representative windows and adaptively
	// add more until the stratified confidence interval converges. A window
	// is the representative interval plus a short timed-warmup prefix
	// (WarmupIntervals intervals) plus a functional-warming pass over the
	// whole prefix [0, lo) so caches, TLB and predictors hold their
	// in-context state. Both come from one recorded functional pass, extended
	// lazily to the furthest window end reached so far.
	model := power.NewModel(cfg)
	roiInsts := totalROI * uint64(smt)
	var simulated uint64
	type meas struct {
		act      uarch.Activity
		cpi, pow float64
	}
	samples := make([][]meas, plan.K())
	rec := newRecording(prog, plan.TotalInsts)
	simWindow := func(c, ivIdx int) error {
		iv := plan.Intervals[ivIdx]
		lo := iv.Start
		if back := spec.IntervalInsts * uint64(spec.WarmupIntervals); back < lo {
			lo -= back
		} else {
			lo = 0
		}
		// The window is warmup prefix + measured interval + cooldown suffix.
		// The suffix (the successor interval, when one exists) keeps the
		// pipeline fed past the measurement boundary: WithMeasureLimit stops
		// counting at the interval's end with successors still in flight, so
		// the window does not pay a whole-pipeline drain that in-context
		// execution overlaps with downstream work.
		hi := min(iv.End+spec.IntervalInsts, plan.TotalInsts)
		prefix, err := rec.upTo(hi)
		if err != nil {
			return err
		}
		recs := prefix[lo:]
		// Thread stagger: a real SMT run's threads drift a few hundred
		// instructions apart (measured: spreads of 100-400 at SMT4), so their
		// resource demands decorrelate. Perfectly phase-locked copies issue
		// the same loads to the same ports on the same cycles — a systematic
		// CPI overestimate. Thread t skips the first t*skew warmup records so
		// the copies run offset on the drift scale; the skip is clamped to the
		// warmup prefix so the measured interval itself is never consumed
		// (interval 0's threads start aligned, exactly as a real run does).
		//
		// The stagger is gated on the interval's static footprint: inside a
		// tight loop (few distinct PCs) lockstep copies are interchangeable
		// and already unbiased, while an offset desynchronizes the loop's
		// steady state and inflates CPI — measured +4% on a 12-PC streaming
		// kernel at SMT8 versus +10% for lockstep copies of a 131-PC phase
		// at SMT4. Large-footprint code staggers; tight loops stay aligned.
		// Distinct static indices are distinct PCs.
		skew := spec.IntervalInsts / uint64(4*smt)
		pcs := make(map[int32]struct{}, staggerMinPCs)
		for i := iv.Start - lo; i < uint64(len(recs)) && i < iv.End-lo; i++ {
			pcs[recs[i].idx] = struct{}{}
			if len(pcs) >= staggerMinPCs {
				break
			}
		}
		if len(pcs) < staggerMinPCs {
			skew = 0
		}
		var warm uint64
		streams := make([]trace.Stream, smt)
		for t := 0; t < smt; t++ {
			skip := min(uint64(t)*skew, iv.Start-lo)
			streams[t] = rec.replay(lo+skip, hi)
			warm += iv.Start - lo - skip
		}
		opts := append(append([]uarch.SimOption{}, extra...), uarch.WithWarmup(warm))
		if hi > iv.End {
			// No suffix on the trace's last interval: there it genuinely ends
			// with a drain in context, so the natural run-out is the truth.
			opts = append(opts, uarch.WithMeasureLimit(iv.Insts()*uint64(smt)))
		}
		if lo > 0 {
			warms := make([]trace.Stream, smt)
			for t := 0; t < smt; t++ {
				warms[t] = rec.replay(0, lo)
			}
			opts = append(opts, uarch.WithFunctionalWarming(warms))
		}
		res, err := uarch.Simulate(cfg, streams, maxCycles, opts...)
		if err != nil {
			return fmt.Errorf("sampling: representative [%d,%d) of cluster %d: %w",
				iv.Start, iv.End, c, err)
		}
		simulated += uint64(len(recs)) * uint64(smt)
		a := &res.Activity
		if a.Instructions == 0 {
			return fmt.Errorf("sampling: representative [%d,%d) of cluster %d retired nothing",
				iv.Start, iv.End, c)
		}
		samples[c] = append(samples[c], meas{act: res.Activity, cpi: a.CPI(), pow: model.Report(a).Total})
		return nil
	}

	// Initial allocation: RepsPerCluster windows per live cluster.
	for c, cl := range plan.Clusters {
		if roiIns[c] == 0 {
			continue // a phase living entirely in warmup is never simulated
		}
		for _, ivIdx := range cl.Reps[:min(spec.RepsPerCluster, len(cl.Reps))] {
			if err := simWindow(c, ivIdx); err != nil {
				return nil, err
			}
		}
	}

	// Adaptive refinement: while the CPI or power confidence interval is
	// wider than half the published error bound, simulate one more member of
	// the cluster contributing the most estimator variance. Terminates at
	// full coverage in the worst case (each fully simulated cluster has zero
	// variance contribution by the finite-population correction).
	strata := func(metric func(*meas) float64) []stratum {
		out := make([]stratum, plan.K())
		for c := range samples {
			xs := make([]float64, len(samples[c]))
			for i := range samples[c] {
				xs[i] = metric(&samples[c][i])
			}
			out[c] = stratum{weight: weights[c], total: plan.Clusters[c].Members, xs: xs}
		}
		return out
	}
	for {
		cpiStrata := strata(func(m *meas) float64 { return m.cpi })
		powStrata := strata(func(m *meas) float64 { return m.pow })
		cpiMean, cpiHalf := stratifiedCI(cpiStrata)
		powMean, powHalf := stratifiedCI(powStrata)
		if (cpiMean == 0 || cpiHalf <= CPIErrBound/2*cpiMean) &&
			(powMean == 0 || powHalf <= PowerErrBound/2*powMean) {
			break
		}
		cpiVars := flooredVars(cpiStrata)
		powVars := flooredVars(powStrata)
		best, bestScore := -1, 0.0
		for c := range samples {
			m := len(samples[c])
			if weights[c] == 0 || m == 0 || m >= len(plan.Clusters[c].Reps) {
				continue
			}
			var relvar float64
			if cpiMean > 0 {
				relvar = cpiVars[c] / (cpiMean * cpiMean)
			}
			if powMean > 0 {
				relvar += powVars[c] / (powMean * powMean)
			}
			fpc := 1 - float64(m)/float64(plan.Clusters[c].Members)
			if score := weights[c] * weights[c] * fpc * relvar / float64(m); score > bestScore {
				best, bestScore = c, score
			}
		}
		if best < 0 || bestScore == 0 {
			break // nothing left to sample (or no estimated variance remains)
		}
		if err := simWindow(best, plan.Clusters[best].Reps[len(samples[best])]); err != nil {
			return nil, err
		}
	}

	// Extrapolate: each cluster's measured windows share its ROI weight
	// equally (they are an unbiased sample of the phase), and every counter
	// is scaled so the cluster contributes its exact ROI instruction share.
	est := &Estimate{Plan: plan}
	var ext extrapolator
	windows := 0
	for c := range samples {
		for i := range samples[c] {
			m := &samples[c][i]
			cw := weights[c] / float64(len(samples[c]))
			ext.add(&m.act, cw*float64(roiInsts)/float64(m.act.Instructions))
			windows++
		}
	}
	est.Activity = ext.round()
	// Pin the identity counter: the extrapolated instruction total must
	// equal the ROI coverage exactly (rounding the scaled sum can drift).
	est.Activity.Instructions = roiInsts
	est.Report = model.Report(&est.Activity)

	cpiMean, cpiHalf := stratifiedCI(strata(func(m *meas) float64 { return m.cpi }))
	_, powHalf := stratifiedCI(strata(func(m *meas) float64 { return m.pow }))
	est.Meta = Meta{
		Spec:           spec,
		Intervals:      len(plan.Intervals),
		K:              plan.K(),
		Windows:        windows,
		SMT:            smt,
		TotalInsts:     plan.TotalInsts * uint64(smt),
		ROIInsts:       roiInsts,
		SimulatedInsts: simulated,
		CPI:            cpiMean,
		CPIHalfWidth:   cpiHalf,
		AvgPower:       est.Report.Total,
		PowerHalfWidth: powHalf,
	}
	return est, nil
}

// stratum is one phase's measured metric samples for interval estimation:
// its ROI weight, its population size (member intervals), and the sampled
// values.
type stratum struct {
	weight float64
	total  int
	xs     []float64
}

// stratifiedCI returns the stratified estimate of the population mean and a
// 95% confidence half-width. Each stratum contributes weight*mean to the
// estimate and weight^2 * fpc * s^2/m to the estimator variance, where fpc
// is the finite-population correction (1 - m/n): a fully simulated stratum
// contributes exactly zero uncertainty. Per-stratum variances come from
// flooredVars, so a handful of coincidentally equal draws from a
// heterogeneous phase cannot collapse the interval to zero.
func stratifiedCI(strata []stratum) (mean, half float64) {
	vars := flooredVars(strata)
	var variance float64
	for i, st := range strata {
		m := float64(len(st.xs))
		if m == 0 {
			continue
		}
		var mu float64
		for _, x := range st.xs {
			mu += x
		}
		mu /= m
		mean += st.weight * mu
		if st.total <= len(st.xs) {
			continue
		}
		fpc := 1 - m/float64(st.total)
		variance += st.weight * st.weight * fpc * vars[i] / m
	}
	return mean, 1.96 * math.Sqrt(variance)
}

// flooredVars returns each stratum's variance estimate: its own unbiased
// sample variance, floored — while the stratum is not fully covered — by the
// pooled within-stratum variance across all strata. The floor is what makes
// the small-sample confidence interval honest: feature-space clustering is
// imperfect, so a phase's first few draws can coincide (observed variance
// zero) while the phase itself is heterogeneous. Phases of one workload share
// the same unexplained-variance scale, so the pool borrows strength from the
// well-sampled clusters; on genuinely homogeneous workloads the pool is tiny
// and the floor costs nothing.
func flooredVars(strata []stratum) []float64 {
	var num, den float64
	for _, st := range strata {
		if m := len(st.xs); m >= 2 {
			num += float64(m-1) * varOf(st.xs)
			den += float64(m - 1)
		}
	}
	var pooled float64
	if den > 0 {
		pooled = num / den
	}
	out := make([]float64, len(strata))
	for i, st := range strata {
		var v float64
		if len(st.xs) >= 2 {
			v = varOf(st.xs)
		}
		if len(st.xs) < st.total && v < pooled {
			v = pooled
		}
		out[i] = v
	}
	return out
}

// varOf is the unbiased sample variance (zero for fewer than two samples).
func varOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mu float64
	for _, x := range xs {
		mu += x
	}
	mu /= float64(len(xs))
	var s2 float64
	for _, x := range xs {
		d := x - mu
		s2 += d * d
	}
	return s2 / float64(len(xs)-1)
}

// extrapolator accumulates weighted activity counters in float space and
// rounds once at the end, so many small clusters do not each lose a fraction
// to integer truncation.
type extrapolator struct {
	vals [activityFields]float64
}

// activityFields is the flattened counter count (see flatten): 45 scalar
// counters plus the PerThread, IssueByClass and UnitBusy arrays. The
// reflection round-trip test pins this against the Activity struct.
const activityFields = 45 + 8 + int(isa.NumClasses) + int(uarch.NumUnits)

// add accumulates f * every counter of a.
func (e *extrapolator) add(a *uarch.Activity, f float64) {
	var buf [activityFields]uint64
	flatten(a, &buf)
	for i, v := range buf {
		e.vals[i] += f * float64(v)
	}
}

// round renders the accumulated floats back into an Activity.
func (e *extrapolator) round() uarch.Activity {
	var buf [activityFields]uint64
	for i, v := range e.vals {
		if v > 0 {
			buf[i] = uint64(math.Round(v))
		}
	}
	var a uarch.Activity
	unflatten(&buf, &a)
	return a
}

// flatten serializes every Activity counter into a fixed-order array; its
// inverse is unflatten. Keeping the pair adjacent (and covered by the
// round-trip test) is what lets the extrapolator scale all counters without
// a hand-written per-field scale function drifting from the struct.
func flatten(a *uarch.Activity, out *[activityFields]uint64) {
	i := 0
	put := func(v uint64) { out[i] = v; i++ }
	put(a.Cycles)
	put(a.Instructions)
	put(a.InternalOps)
	for _, v := range a.PerThread {
		put(v)
	}
	put(a.Flops)
	put(a.IntMACs)
	put(a.FetchSlots)
	put(a.WrongPathSlots)
	put(a.FlushedInsts)
	put(a.FetchStallCycles)
	put(a.ICacheAccesses)
	put(a.ICacheMisses)
	put(a.IERATLookups)
	put(a.BranchObserved)
	put(a.BranchMispredicts)
	put(a.SecondPredHits)
	put(a.DecodeSlots)
	put(a.FusedPairs)
	put(a.RenameOps)
	put(a.DispatchStallCycles)
	put(a.DispatchStallROB)
	put(a.DispatchStallIQ)
	put(a.DispatchStallLSQ)
	for _, v := range a.IssueByClass {
		put(v)
	}
	put(a.IssueQueueWrites)
	put(a.RSWakeups)
	put(a.RegReads)
	put(a.RegWrites)
	put(a.L1DAccesses)
	put(a.L1DMisses)
	put(a.L2Accesses)
	put(a.L2Misses)
	put(a.L3Accesses)
	put(a.L3Misses)
	put(a.MemAccesses)
	put(a.DERATLookups)
	put(a.TLBLookups)
	put(a.TLBMisses)
	put(a.LQAllocs)
	put(a.SQAllocs)
	put(a.SQGathered)
	put(a.StoreForwards)
	put(a.LMQFull)
	put(a.Prefetches)
	put(a.MMAOps)
	put(a.MMAMoves)
	put(a.MMAActiveCycles)
	for _, v := range a.UnitBusy {
		put(v)
	}
	if i != activityFields {
		panic(fmt.Sprintf("sampling: flatten covered %d fields, want %d", i, activityFields))
	}
}

func unflatten(in *[activityFields]uint64, a *uarch.Activity) {
	i := 0
	get := func() uint64 { v := in[i]; i++; return v }
	a.Cycles = get()
	a.Instructions = get()
	a.InternalOps = get()
	for j := range a.PerThread {
		a.PerThread[j] = get()
	}
	a.Flops = get()
	a.IntMACs = get()
	a.FetchSlots = get()
	a.WrongPathSlots = get()
	a.FlushedInsts = get()
	a.FetchStallCycles = get()
	a.ICacheAccesses = get()
	a.ICacheMisses = get()
	a.IERATLookups = get()
	a.BranchObserved = get()
	a.BranchMispredicts = get()
	a.SecondPredHits = get()
	a.DecodeSlots = get()
	a.FusedPairs = get()
	a.RenameOps = get()
	a.DispatchStallCycles = get()
	a.DispatchStallROB = get()
	a.DispatchStallIQ = get()
	a.DispatchStallLSQ = get()
	for j := range a.IssueByClass {
		a.IssueByClass[j] = get()
	}
	a.IssueQueueWrites = get()
	a.RSWakeups = get()
	a.RegReads = get()
	a.RegWrites = get()
	a.L1DAccesses = get()
	a.L1DMisses = get()
	a.L2Accesses = get()
	a.L2Misses = get()
	a.L3Accesses = get()
	a.L3Misses = get()
	a.MemAccesses = get()
	a.DERATLookups = get()
	a.TLBLookups = get()
	a.TLBMisses = get()
	a.LQAllocs = get()
	a.SQAllocs = get()
	a.SQGathered = get()
	a.StoreForwards = get()
	a.LMQFull = get()
	a.Prefetches = get()
	a.MMAOps = get()
	a.MMAMoves = get()
	a.MMAActiveCycles = get()
	for j := range a.UnitBusy {
		a.UnitBusy[j] = get()
	}
}
