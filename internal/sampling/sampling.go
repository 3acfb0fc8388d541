// Package sampling is the SimPoint-style statistical sampling engine: it
// phase-classifies a workload's dynamic instruction stream into fixed-size
// intervals, clusters the intervals by behavioral signature, simulates only
// one representative interval per cluster (with a functional-warming prefix),
// and extrapolates whole-run CPI, activity counts, and power with
// cluster-weight aggregation and per-metric confidence intervals.
//
// The economics mirror the paper's methodology: pre-silicon energy sweeps are
// simulation-bound (the paper leaned on AWAN hardware acceleration for
// exactly this reason), and representative-interval execution buys another
// 10-100x on top of any hot-loop speedup by simulating *fewer* instructions
// rather than simulating them faster. The engine executes the program
// functionally twice per run, whatever the window count: once to featurize
// (BuildPlan) and once, lazily, into a compact recording that every window's
// timed records and every thread's functional-warming prefix are sliced from
// (Run). The VM retires instructions several times faster than the timing
// core, so the two passes together cost a fraction of one full simulation;
// what grows with the window count is functional warming, which replays each
// window's prefix through the cache and predictor models.
//
// Determinism: featurization is a pure function of the trace, k-means uses a
// seeded LCG for initialization, ties break on lowest index, and the
// representative simulations are the same deterministic core runs the full
// path uses — so a sampling estimate is bit-identical across processes and
// may join the runner's content-keyed caches (the Spec is part of the key).
package sampling

import (
	"errors"
	"fmt"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
)

// Error bounds the validation harness (and `make sample-check`) asserts:
// a sampled estimate must land within these relative errors of the full run.
const (
	// CPIErrBound is the maximum tolerated relative CPI error.
	CPIErrBound = 0.03
	// PowerErrBound is the maximum tolerated relative average-power error.
	PowerErrBound = 0.05
)

// Spec is the sampling configuration. It is a flat comparable struct on
// purpose: the spec joins runner.Key (and the persistent p10cache-v1 disk
// key), so sampled and full results of the same simulation never collide.
type Spec struct {
	// IntervalInsts is the phase-classification interval length in dynamic
	// instructions (per thread).
	IntervalInsts uint64
	// MaxK bounds the number of clusters (and therefore representative
	// simulations). The BIC pick may choose fewer.
	MaxK int
	// RepsPerCluster is how many member intervals are simulated per cluster
	// (a systematic within-cluster sample). One representative measures a
	// phase's center; the extras sample the residual within-phase variance
	// the feature space cannot explain, which is what keeps the CPI error
	// bounded on heterogeneous workloads.
	RepsPerCluster int
	// WarmupIntervals is the functional-warming prefix replayed before each
	// representative: caches, branch predictors and queues warm during it,
	// its statistics are discarded (uarch.WithWarmup).
	WarmupIntervals int
	// SignatureDims is the number of hash buckets in the PC/basic-block
	// signature half of the feature vector.
	SignatureDims int
	// Seed drives the deterministic k-means++ initialization.
	Seed uint64
}

// DefaultSpec returns the tuned default configuration.
func DefaultSpec() Spec {
	return Spec{
		IntervalInsts:   2000,
		MaxK:            8,
		RepsPerCluster:  3,
		WarmupIntervals: 4,
		SignatureDims:   32,
		Seed:            1,
	}
}

// Normalized fills zero fields with the defaults and sanity-clamps the rest,
// so a partially specified Spec behaves predictably. Cache keys are built
// from the normalized form, so equivalent specs share cache entries.
func (s Spec) Normalized() Spec {
	d := DefaultSpec()
	if s.IntervalInsts == 0 {
		s.IntervalInsts = d.IntervalInsts
	}
	if s.MaxK <= 0 {
		s.MaxK = d.MaxK
	}
	if s.RepsPerCluster <= 0 {
		s.RepsPerCluster = d.RepsPerCluster
	}
	if s.WarmupIntervals < 0 {
		s.WarmupIntervals = 0
	}
	if s.SignatureDims <= 0 {
		s.SignatureDims = d.SignatureDims
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// Interval is one fixed-size slice of the dynamic trace.
type Interval struct {
	// Start and End are record indices [Start, End) into the dynamic trace.
	Start, End uint64
	// Cluster is the phase this interval was assigned to.
	Cluster int
	// features is the normalized behavior vector (class mix ++ PC signature).
	features []float64
}

// Insts returns the interval's dynamic instruction count.
func (iv *Interval) Insts() uint64 { return iv.End - iv.Start }

// Cluster is one phase: a set of behaviorally similar intervals represented
// by the member closest to the centroid.
type Cluster struct {
	// Rep is the index (into Plan.Intervals) of the primary representative:
	// the member closest to the centroid.
	Rep int
	// Reps is the cluster's full member list in sampling order (a seeded
	// deterministic shuffle, so any prefix is a simple random sample of the
	// phase). The engine simulates the first Spec.RepsPerCluster entries and
	// extends down the list adaptively until its confidence target is met.
	Reps []int
	// Members is the number of intervals assigned to the cluster.
	Members int
	// Insts is the total dynamic instructions across member intervals.
	Insts uint64
	// Weight is the cluster's share of the whole trace (by instructions).
	Weight float64
}

// Plan is a phase classification of one workload trace: the outcome of the
// featurize+cluster passes, ready for representative simulation.
type Plan struct {
	Spec      Spec
	Intervals []Interval
	Clusters  []Cluster
	// TotalInsts is the dynamic length of the (per-thread) trace.
	TotalInsts uint64
	// SSE is the final clustering's sum of squared distances (diagnostic).
	SSE float64
}

// K returns the chosen cluster count.
func (p *Plan) K() int { return len(p.Clusters) }

// BuildPlan functionally executes prog for up to budget instructions
// (pass 1: no timing, no record storage), featurizes fixed-size intervals,
// and clusters them into phases. The trace ends at the program's halt when
// that comes before the budget.
func BuildPlan(prog *isa.Program, budget uint64, spec Spec) (*Plan, error) {
	spec = spec.Normalized()
	stream := trace.NewVMStream(prog, budget)
	var (
		intervals []Interval
		n         uint64
	)
	cur := newFeatureAcc(spec.SignatureDims)
	// prev retains the raw counts of the most recently completed interval so
	// an undersized tail can be merged into it exactly (counts, not vectors).
	prev := newFeatureAcc(spec.SignatureDims)
	seenLines := make(map[uint64]struct{})
	seenPages := make(map[uint64]struct{})
	start := uint64(0)
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		in := &prog.Code[d.Idx]
		cls := in.Class()
		cur.observe(cls, d.PC)
		if cls.IsMem() {
			// First-touch rates are the microarchitectural half of the
			// signature: behaviorally identical code runs at a very
			// different CPI while its working set is still being faulted
			// in, and the class mix + PC signature cannot see that. A
			// cold-footprint feature separates the warmup ramp into its
			// own phase so its representative carries its true weight.
			if line := d.EA / lineBytes; !member(seenLines, line) {
				cur.newLines++
			}
			if page := d.EA / pageBytes; !member(seenPages, page) {
				cur.newPages++
			}
		}
		n++
		if n-start >= spec.IntervalInsts {
			intervals = append(intervals, Interval{Start: start, End: n, features: cur.vector()})
			prev, cur = cur, prev
			cur.reset()
			start = n
		}
	}
	if err := stream.Err(); err != nil {
		return nil, fmt.Errorf("sampling: functional pass: %w", err)
	}
	if n == 0 {
		return nil, errors.New("sampling: empty dynamic trace")
	}
	if n > start {
		// The partial tail's instructions must be accounted for or short
		// traces extrapolate with a bias. A runt tail (under half an interval)
		// is merged into the previous interval rather than kept: as its own
		// (usually singleton) phase it would buy a whole representative
		// simulation for negligible weight, and a measured window shorter than
		// a retire group can be swallowed entirely by the warmup boundary's
		// group quantization.
		if tail := n - start; len(intervals) > 0 && tail*2 < spec.IntervalInsts {
			prev.merge(cur)
			last := &intervals[len(intervals)-1]
			last.End = n
			last.features = prev.vector()
		} else {
			intervals = append(intervals, Interval{Start: start, End: n, features: cur.vector()})
		}
	}
	plan := &Plan{Spec: spec, Intervals: intervals, TotalInsts: n}
	plan.cluster()
	return plan, nil
}

// lineBytes/pageBytes are the footprint-tracking granularities for the
// first-touch features. They are deliberately config-independent constants
// (the plan is built once per workload, not per core config); 64B lines and
// 4KiB pages match every modeled configuration.
const (
	lineBytes = 64
	pageBytes = 4096
)

// member reports whether v is in set, inserting it if not.
func member(set map[uint64]struct{}, v uint64) bool {
	if _, ok := set[v]; ok {
		return true
	}
	set[v] = struct{}{}
	return false
}

// featureAcc accumulates one interval's feature counts.
type featureAcc struct {
	byClass  [isa.NumClasses]uint64
	pcSig    []uint64
	newLines uint64
	newPages uint64
	insts    uint64
}

func newFeatureAcc(sigDims int) *featureAcc {
	return &featureAcc{pcSig: make([]uint64, sigDims)}
}

func (f *featureAcc) observe(c isa.Class, pc uint64) {
	f.byClass[c]++
	f.pcSig[mix64(pc)%uint64(len(f.pcSig))]++
	f.insts++
}

// merge adds o's raw counts into f (used to fold a runt tail interval into
// its predecessor before re-rendering the feature vector).
func (f *featureAcc) merge(o *featureAcc) {
	for i, v := range o.byClass {
		f.byClass[i] += v
	}
	for i, v := range o.pcSig {
		f.pcSig[i] += v
	}
	f.newLines += o.newLines
	f.newPages += o.newPages
	f.insts += o.insts
}

func (f *featureAcc) reset() {
	f.byClass = [isa.NumClasses]uint64{}
	for i := range f.pcSig {
		f.pcSig[i] = 0
	}
	f.newLines = 0
	f.newPages = 0
	f.insts = 0
}

// vector renders the accumulated counts as a normalized feature vector: the
// instruction-class mix (sums to 1), the PC-signature distribution (sums to
// 1), and the per-instruction first-touch rates for cache lines and pages.
// Every element is a fraction of the interval's instructions, so intervals
// of different lengths (the tail) are comparable.
func (f *featureAcc) vector() []float64 {
	out := make([]float64, isa.NumClasses+len(f.pcSig)+2)
	if f.insts == 0 {
		return out
	}
	inv := 1 / float64(f.insts)
	for i, v := range f.byClass {
		out[i] = float64(v) * inv
	}
	for i, v := range f.pcSig {
		out[isa.NumClasses+i] = float64(v) * inv
	}
	out[isa.NumClasses+len(f.pcSig)] = float64(f.newLines) * inv
	out[isa.NumClasses+len(f.pcSig)+1] = float64(f.newPages) * inv
	return out
}

// mix64 is a splitmix64-style finalizer used for PC bucketing and the
// deterministic k-means LCG.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
