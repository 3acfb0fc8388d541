package sampling

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Windows is the number of representative windows actually simulated:
	// Spec.RepsPerCluster per cluster with nonzero ROI weight (all members
	// of a smaller cluster), plus every window adaptive refinement added.
	// It is 0 on a guarded run.
	Windows int `json:"windows"`
	// Guarded marks a plan whose initial windows would time at least as
	// many instructions as they cover (Prepared.Guarded), run in full
	// instead: its Activity is the full run's, SimulatedInsts is the whole
	// trace across threads, and CPI and AvgPower are exact, with no
	// half-widths.
	Guarded    bool   `json:"guarded,omitempty"`
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

// staggerMinPCs gates the SMT thread stagger on the measured interval's
// static footprint: intervals touching fewer distinct PCs are tight loops
// whose lockstep copies replay a real run faithfully, and staggering them
// desynchronizes the loop steady state instead (see simWindow). The cut
// sits between the streaming kernels (daxpy 12, stressmark 26 PCs per
// 2k-instruction interval) and phase-structured code (dgemm 48, resnet 131).
const staggerMinPCs = 32

// Run phase-classifies prog's dynamic trace (budget instructions per thread)
// and estimates the behavior of an smt-thread simulation on cfg by simulating
// a few representative intervals per phase. warmup is the measurement warmup
// in total instructions across threads (runner.Request.Warmup semantics): the
// extrapolation covers only the region of interest after it, exactly like a
// full run under uarch.WithWarmup. extra options (e.g. uarch.WithContext for
// cancellation) are applied to every representative simulation before the
// engine's own warmup option, from several goroutines at once.
//
// Run is Prepare followed by Estimate, whatever the plan's cost: it never
// guards. A caller that would rather run a guarded plan in full prepares
// and decides itself (see Prepared.Guarded).
func Run(cfg *uarch.Config, prog *isa.Program, budget, warmup uint64, smt int, maxCycles uint64, spec Spec, extra ...uarch.SimOption) (*Estimate, error) {
	p, err := Prepare(prog, budget, warmup, smt, spec)
	if err != nil {
		return nil, err
	}
	return p.Estimate(cfg, maxCycles, extra...)
}

// Prepared is a phase-classified trace, ready to estimate or to run in
// full: the plan, the recording its intervals index, and each phase's share
// of the region of interest (ROI), the trace after the warm-up boundary.
// It is read-only, so it may be estimated any number of times.
type Prepared struct {
	Plan *Plan
	// Rec is the per-thread trace the plan classified: Plan.TotalInsts
	// records, the whole budget or up to the program's halt.
	Rec *trace.Recording
	smt int
	// roi is the per-thread warm-up boundary: the ROI is
	// [roi, Plan.TotalInsts), and roiIns[c] is cluster c's part of it.
	roi    uint64
	roiIns []uint64
}

// Prepare records prog's dynamic trace (budget instructions per thread) once
// and phase-classifies it (BuildPlan) for an smt-thread run whose first
// warmup instructions, in total across threads, are not measured. It fails
// when the warmup consumes the whole trace.
func Prepare(prog *isa.Program, budget, warmup uint64, smt int, spec Spec) (*Prepared, error) {
	smt = max(smt, 1)
	plan, rec, err := buildPlan(prog, budget, spec)
	if err != nil {
		return nil, err
	}
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
	return &Prepared{Plan: plan, Rec: rec, smt: smt, roi: roi, roiIns: roiIns}, nil
}

// Guarded reports whether the plan's initial windows would time at least as
// many instructions as the ROI covers, so estimating would cost more
// simulation than the full run it stands for. The initial windows are
// Spec.RepsPerCluster per cluster with ROI weight, each a warm-up prefix,
// its interval and a cooldown, and every one runs at the plan's SMT level,
// as the ROI does. Adaptive refinement adds windows only once the initial
// ones are measured, so the decision leaves them out.
func (p *Prepared) Guarded() bool {
	var timed uint64
	for _, s := range p.initial() {
		lo, hi := p.bounds(s.ivIdx)
		timed += hi - lo
	}
	return timed >= p.Plan.TotalInsts-p.roi
}

// FullMeta is the Meta of a full run of the prepared trace, made in place
// of an estimate: what the plan classified, Guarded set, no windows, every
// instruction of every thread timed, and the run's own CPI and average
// power, which are exact and so carry no half-widths.
func (p *Prepared) FullMeta(a *uarch.Activity, avgPower float64) Meta {
	smt := uint64(p.smt)
	return Meta{
		Spec:           p.Plan.Spec,
		Intervals:      len(p.Plan.Intervals),
		K:              p.Plan.K(),
		Guarded:        true,
		SMT:            p.smt,
		TotalInsts:     p.Plan.TotalInsts * smt,
		ROIInsts:       (p.Plan.TotalInsts - p.roi) * smt,
		SimulatedInsts: p.Plan.TotalInsts * smt,
		CPI:            a.CPI(),
		AvgPower:       avgPower,
	}
}

// slot is one initial window: the rep-th member of cluster c, interval
// ivIdx of the plan.
type slot struct{ c, rep, ivIdx int }

// initial returns the initial windows, RepsPerCluster per cluster with ROI
// weight (all members of a smaller cluster), in cluster order.
func (p *Prepared) initial() []slot {
	var out []slot
	for c, cl := range p.Plan.Clusters {
		if p.roiIns[c] == 0 {
			continue // a phase living entirely in warmup is never simulated
		}
		n := min(p.Plan.Spec.RepsPerCluster, len(cl.Reps))
		for rep, ivIdx := range cl.Reps[:n] {
			out = append(out, slot{c, rep, ivIdx})
		}
	}
	return out
}

// bounds returns the trace range [lo, hi) a window over interval ivIdx
// times: a warm-up prefix of Spec.WarmupIntervals intervals, the measured
// interval, and a cooldown suffix of one interval, clipped to the trace.
// The suffix keeps the pipeline fed past the measurement boundary:
// WithMeasureLimit stops counting at the interval's end with successors
// still in flight, so the window does not pay a whole-pipeline drain that
// in-context execution overlaps with downstream work.
func (p *Prepared) bounds(ivIdx int) (lo, hi uint64) {
	spec := &p.Plan.Spec
	iv := &p.Plan.Intervals[ivIdx]
	if back := spec.IntervalInsts * uint64(spec.WarmupIntervals); back < iv.Start {
		lo = iv.Start - back
	}
	return lo, min(iv.End+spec.IntervalInsts, p.Plan.TotalInsts)
}

// Estimate simulates the prepared plan's representative windows on cfg and
// extrapolates them to the whole ROI. The SMT model mirrors the experiment
// harness: the plan's smt hardware threads each run an identical copy of
// the workload, so one per-thread trace classifies all of them and each
// representative is simulated at that SMT level with smt copies of its
// window.
//
// Estimate uses every core it is given. The initial windows are timed
// concurrently while the caller's goroutine warms the next one's state.
// Window simulations hold one of runtime.GOMAXPROCS(0) slots shared by
// every Estimate in the process. A window's measurement depends only on its
// interval, so the estimate does not depend on GOMAXPROCS or on which
// window finishes first. The error returned is the first failing window's
// in start order; a panic in a window panics again on the caller's goroutine
// with the same value. No goroutine Estimate starts outlives it.
func (p *Prepared) Estimate(cfg *uarch.Config, maxCycles uint64, extra ...uarch.SimOption) (*Estimate, error) {
	plan, rec, smt := p.Plan, p.Rec, p.smt
	spec := plan.Spec
	totalROI := plan.TotalInsts - p.roi
	weights := make([]float64, plan.K())
	for c := range weights {
		weights[c] = float64(p.roiIns[c]) / float64(totalROI)
	}

	// Pass 2+3, interleaved: simulate representative windows and adaptively
	// add more until the stratified confidence interval converges. A window
	// is the representative interval plus a short timed-warmup prefix
	// (WarmupIntervals intervals), started from the functionally warmed
	// state of the whole prefix [0, lo) so caches, TLB and predictors hold
	// their in-context contents. Both come from the plan's recording.
	//
	// Thread 0's warm state is advanced forward through the recording on
	// the caller's goroutine: fwd holds the state after [0, pos), and a
	// window at lo >= pos warms only [pos, lo) into it. A window behind pos
	// (only adaptive windows start there) restarts fwd from cold. Each
	// window is simulated from its own snapshot of fwd. At SMT>1, threads 1
	// and up warm their own full [0, lo) on the snapshot, after thread 0,
	// each on a pseudo-clock starting at zero.
	model := power.NewModel(cfg)
	roiInsts := totalROI * uint64(smt)
	var simulated uint64
	type meas struct {
		act      uarch.Activity
		cpi, pow float64
	}
	samples := make([][]meas, plan.K())
	warmErr := func(c, ivIdx int, err error) error {
		iv := &plan.Intervals[ivIdx]
		return fmt.Errorf("sampling: warming representative [%d,%d) of cluster %d: %w",
			iv.Start, iv.End, c, err)
	}
	// simWindow times one window from ws, thread 0's warm state at the
	// window's lo, or from cold when ws is nil (lo is 0). It warms threads 1
	// and up into ws, which it owns; concurrent calls need distinct states.
	simWindow := func(c, ivIdx int, ws *uarch.WarmState) (meas, error) {
		iv := plan.Intervals[ivIdx]
		lo, hi := p.bounds(ivIdx)
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
		for i := iv.Start; i < iv.End && len(pcs) < staggerMinPCs; i++ {
			pcs[rec.At(i).Idx()] = struct{}{}
		}
		if len(pcs) < staggerMinPCs {
			skew = 0
		}
		var warm uint64
		streams := make([]trace.Stream, smt)
		for t := 0; t < smt; t++ {
			skip := min(uint64(t)*skew, iv.Start-lo)
			streams[t] = rec.Replay(lo+skip, hi)
			warm += iv.Start - lo - skip
		}
		opts := append(append([]uarch.SimOption{}, extra...), uarch.WithWarmup(warm))
		if hi > iv.End {
			// No suffix on the trace's last interval: there it genuinely ends
			// with a drain in context, so the natural run-out is the truth.
			opts = append(opts, uarch.WithMeasureLimit(iv.Insts()*uint64(smt)))
		}
		if ws != nil {
			for t := 1; t < smt; t++ {
				if err := ws.Warm(rec.Replay(0, lo), t); err != nil {
					return meas{}, warmErr(c, ivIdx, err)
				}
			}
			opts = append(opts, uarch.WithWarmState(ws))
		}
		res, err := uarch.Simulate(cfg, streams, maxCycles, opts...)
		if err != nil {
			return meas{}, fmt.Errorf("sampling: representative [%d,%d) of cluster %d: %w",
				iv.Start, iv.End, c, err)
		}
		a := &res.Activity
		if a.Instructions == 0 {
			return meas{}, fmt.Errorf("sampling: representative [%d,%d) of cluster %d retired nothing",
				iv.Start, iv.End, c)
		}
		return meas{act: res.Activity, cpi: a.CPI(), pow: model.Report(a).Total}, nil
	}
	fwd := getWarm(cfg)
	fwd.Reset()
	defer putWarm(cfg, fwd)
	var pos uint64
	// begin readies a window on the caller's goroutine: it warms fwd to the
	// window's lo, takes a core slot, and copies fwd into a pooled snapshot
	// (nil at lo 0). The caller owes the slot back once it has recorded the
	// window's outcome.
	begin := func(c, ivIdx int) (*uarch.WarmState, error) {
		lo, hi := p.bounds(ivIdx)
		if lo > 0 {
			if lo < pos {
				fwd.Reset()
				pos = 0
			}
			if err := fwd.Warm(rec.Replay(pos, lo), 0); err != nil {
				return nil, warmErr(c, ivIdx, err)
			}
			pos = lo
		}
		simulated += (hi - lo) * uint64(smt)
		cores.acquire()
		if lo == 0 {
			return nil, nil
		}
		ws := getWarm(cfg)
		ws.CopyFrom(fwd)
		return ws, nil
	}
	simulate := func(c, ivIdx int, ws *uarch.WarmState) (meas, error) {
		m, err := simWindow(c, ivIdx, ws)
		if ws != nil {
			putWarm(cfg, ws)
		}
		return m, err
	}

	// Initial allocation: RepsPerCluster windows per live cluster, begun in
	// order of window start so the forward warm state never restarts, and
	// simulated concurrently. Each measurement lands in its cluster-and-rep
	// slot, so every sum below runs in cluster order.
	initial := p.initial()
	for _, s := range initial {
		samples[s.c] = append(samples[s.c], meas{})
	}
	slices.SortFunc(initial, func(a, b slot) int {
		return cmp.Compare(plan.Intervals[a.ivIdx].Start, plan.Intervals[b.ivIdx].Start)
	})
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		errs   = make([]error, len(initial))
		panics = make([]any, len(initial))
	)
	defer wg.Wait()
	for i, s := range initial {
		ws, err := begin(s.c, s.ivIdx)
		if err != nil {
			errs[i] = err
			break
		}
		if failed.Load() {
			cores.release()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The slot goes back after a failure is recorded, so the
			// begin that takes it next sees the failure.
			defer cores.release()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = v
					failed.Store(true)
				}
			}()
			m, err := simulate(s.c, s.ivIdx, ws)
			if err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
			samples[s.c][s.rep] = m
		}()
	}
	wg.Wait()
	for i := range initial {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}

	// Adaptive refinement: while the CPI or power confidence interval is
	// wider than half the published error bound, simulate one more member of
	// the cluster contributing the most estimator variance. Terminates at
	// full coverage in the worst case (each fully simulated cluster has zero
	// variance contribution by the finite-population correction). Each pick
	// depends on the measurements before it, so these windows run one at a
	// time on the caller's goroutine.
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
		ivIdx := plan.Clusters[best].Reps[len(samples[best])]
		ws, err := begin(best, ivIdx)
		if err != nil {
			return nil, err
		}
		m, err := func() (meas, error) {
			defer cores.release()
			return simulate(best, ivIdx, ws)
		}()
		if err != nil {
			return nil, err
		}
		samples[best] = append(samples[best], m)
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
	vals [uarch.VectorLen]float64
}

// add accumulates f * every counter of a.
func (e *extrapolator) add(a *uarch.Activity, f float64) {
	for i, v := range a.Vector() {
		e.vals[i] += f * float64(v)
	}
}

// round renders the accumulated floats back into an Activity.
func (e *extrapolator) round() uarch.Activity {
	var v [uarch.VectorLen]uint64
	for i, x := range e.vals {
		if x > 0 {
			v[i] = uint64(math.Round(x))
		}
	}
	var a uarch.Activity
	a.SetVector(v)
	return a
}

// cores bounds the window simulations running at once to
// runtime.GOMAXPROCS(0) across the process: a runner pool of N workers
// running sampled requests then shares the machine's cores instead of
// holding N times as many window simulations and warm states. It reads
// GOMAXPROCS at every acquire, so a changed setting takes effect at once.
var cores = newSemaphore()

type semaphore struct {
	mu   sync.Mutex
	cond sync.Cond
	held int
}

func newSemaphore() *semaphore {
	s := &semaphore{}
	s.cond.L = &s.mu
	return s
}

func (s *semaphore) acquire() {
	s.mu.Lock()
	for s.held >= runtime.GOMAXPROCS(0) {
		s.cond.Wait()
	}
	s.held++
	s.mu.Unlock()
}

func (s *semaphore) release() {
	s.mu.Lock()
	s.held--
	s.mu.Unlock()
	s.cond.Signal()
}

// warmPool recycles warm states (about 1 MB each) across windows and runs.
// Like uarch's core pool, a pooled state is reused only for the Config it
// was built from, and dropped otherwise.
var warmPool sync.Pool

type pooledWarm struct {
	cfg uarch.Config
	ws  *uarch.WarmState
}

// getWarm returns a warm state for cfg with arbitrary contents: the caller
// resets it or copies another state over it.
func getWarm(cfg *uarch.Config) *uarch.WarmState {
	if p, ok := warmPool.Get().(*pooledWarm); ok && p.cfg == *cfg {
		return p.ws
	}
	return uarch.NewWarmState(cfg)
}

func putWarm(cfg *uarch.Config, ws *uarch.WarmState) {
	warmPool.Put(&pooledWarm{cfg: *cfg, ws: ws})
}
