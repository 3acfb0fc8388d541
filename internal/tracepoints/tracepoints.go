// Package tracepoints implements the paper's Tracepoints methodology
// (Section III-A): representative-trace generation from hardware performance
// counters sampled at epoch granularity, as a replacement for
// Simpoint-style basic-block-vector clustering. Epochs are assigned to
// histogram bins by CPI and other counter metrics (cache misses, branch
// mispredicts, integer/vector/MMA operation content), and representatives
// are picked per bin so the concatenated trace matches the aggregate
// behaviour of the end-to-end application — including, for AI workloads, the
// fraction of GEMM work that dictates MMA utilization ("MMA-aware traces").
//
// A Simpoint baseline (BBV + k-means) is provided for the accuracy
// comparison the paper draws.
package tracepoints

import (
	"errors"
	"fmt"
	"math"

	"power10sim/internal/isa"
	"power10sim/internal/mlfit"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Epoch is one sampling interval of the profiled application.
type Epoch struct {
	Index              int
	StartInst, EndInst uint64 // record-index range in the captured trace
	Act                uarch.Activity
}

// CPI returns the epoch's cycles per instruction.
func (e *Epoch) CPI() float64 { return e.Act.CPI() }

// Profile is a profiled end-to-end run: the dynamic instruction trace plus
// its epoch-granular counter samples.
type Profile struct {
	Name   string
	Prog   *isa.Program
	Recs   []isa.DynInst
	Epochs []Epoch
	Total  uarch.Activity
}

// Collect profiles a workload: it captures the functional trace once, then
// replays it on the timing model sampling counters every epochCycles (the
// paper's "epoch-level granularity of a few ms").
func Collect(w *workloads.Workload, cfg *uarch.Config, epochCycles uint64) (*Profile, error) {
	recs, err := trace.Capture(w.Prog, w.Budget)
	if err != nil {
		return nil, fmt.Errorf("tracepoints: %w", err)
	}
	if len(recs) == 0 {
		return nil, errors.New("tracepoints: empty trace")
	}
	p := &Profile{Name: w.Name, Prog: w.Prog, Recs: recs}
	var cursor uint64
	cb := func(s uarch.CycleSample) {
		start := cursor
		cursor += s.Delta.Instructions
		p.Epochs = append(p.Epochs, Epoch{
			Index:     len(p.Epochs),
			StartInst: start,
			EndInst:   cursor,
			Act:       s.Delta,
		})
	}
	res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewSliceStream(w.Prog, recs)},
		100_000_000, uarch.WithSampler(epochCycles, cb))
	if err != nil {
		return nil, err
	}
	p.Total = res.Activity
	return p, nil
}

// features extracts the binning metrics of an epoch: CPI, cache misses,
// branch mispredicts, and integer/FPU/vector/MMA operation content — the
// counter set the paper lists.
func features(a *uarch.Activity) []float64 {
	ki := float64(a.Instructions)
	if ki == 0 {
		ki = 1
	}
	per := func(v uint64) float64 { return float64(v) / ki }
	return []float64{
		a.CPI(),
		per(a.L1DMisses) + 4*per(a.L2Misses),
		per(a.BranchMispredicts),
		per(a.IssueByClass[isa.ClassIntALU]),
		per(a.IssueByClass[isa.ClassVSXFMA] + a.IssueByClass[isa.ClassVSXFP]),
		per(a.MMAOps),
	}
}

// Segment is one selected representative slice of the trace.
type Segment struct {
	Epoch  int
	Start  uint64
	End    uint64
	Weight float64
}

// Selection is a representative-trace recipe.
type Selection struct {
	Method   string // "tracepoints" or "simpoint"
	Profile  *Profile
	Segments []Segment
}

// binKey quantizes a feature vector against per-feature scale references.
func binKey(f, scale []float64, levels int) string {
	key := make([]byte, len(f))
	for i := range f {
		s := scale[i]
		if s <= 0 {
			s = 1
		}
		q := int(f[i] / s * float64(levels))
		if q >= levels {
			q = levels - 1
		}
		key[i] = byte('a' + q)
	}
	return string(key)
}

// SelectTracepoints bins epochs by their counter histograms and picks one
// representative per bin, weighted by bin population.
func SelectTracepoints(p *Profile, levels int) (*Selection, error) {
	if len(p.Epochs) == 0 {
		return nil, errors.New("tracepoints: no epochs")
	}
	if levels <= 0 {
		levels = 4
	}
	// Per-feature maxima define the histogram scales.
	nf := len(features(&p.Epochs[0].Act))
	scale := make([]float64, nf)
	feats := make([][]float64, len(p.Epochs))
	for i := range p.Epochs {
		feats[i] = features(&p.Epochs[i].Act)
		for j, v := range feats[i] {
			if v > scale[j] {
				scale[j] = v
			}
		}
	}
	bins := map[string][]int{}
	for i := range p.Epochs {
		k := binKey(feats[i], scale, levels)
		bins[k] = append(bins[k], i)
	}
	sel := &Selection{Method: "tracepoints", Profile: p}
	total := float64(len(p.Epochs))
	for _, members := range bins {
		// Representative: the member closest to the bin's mean CPI, so the
		// concatenated trace matches aggregate performance.
		var meanCPI float64
		for _, m := range members {
			meanCPI += p.Epochs[m].CPI()
		}
		meanCPI /= float64(len(members))
		best, bestD := members[0], math.Inf(1)
		for _, m := range members {
			if d := math.Abs(p.Epochs[m].CPI() - meanCPI); d < bestD {
				best, bestD = m, d
			}
		}
		e := p.Epochs[best]
		sel.Segments = append(sel.Segments, Segment{
			Epoch:  best,
			Start:  e.StartInst,
			End:    e.EndInst,
			Weight: float64(len(members)) / total,
		})
	}
	return sel, nil
}

// bbv builds the basic-block vector of a record range: execution counts per
// static-code bucket.
func bbv(prog *isa.Program, recs []isa.DynInst, dims int) []float64 {
	v := make([]float64, dims)
	stride := (len(prog.Code) + dims - 1) / dims
	if stride == 0 {
		stride = 1
	}
	for i := range recs {
		v[int(recs[i].Idx)/stride]++
	}
	// Normalize so intervals of equal length compare by shape.
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n > 0 {
		n = math.Sqrt(n)
		for i := range v {
			v[i] /= n
		}
	}
	return v
}

// SelectSimpoints is the baseline: fixed-length instruction intervals
// clustered on basic-block vectors with k-means; the representative of each
// cluster is the interval closest to the centroid.
func SelectSimpoints(p *Profile, intervalInsts uint64, k int) (*Selection, error) {
	if intervalInsts == 0 || len(p.Recs) == 0 {
		return nil, errors.New("simpoint: bad inputs")
	}
	nInt := (uint64(len(p.Recs)) + intervalInsts - 1) / intervalInsts
	if nInt == 0 {
		return nil, errors.New("simpoint: no intervals")
	}
	const dims = 32
	vecs := make([][]float64, 0, nInt)
	bounds := make([][2]uint64, 0, nInt)
	for s := uint64(0); s < uint64(len(p.Recs)); s += intervalInsts {
		e := s + intervalInsts
		if e > uint64(len(p.Recs)) {
			e = uint64(len(p.Recs))
		}
		vecs = append(vecs, bbv(p.Prog, p.Recs[s:e], dims))
		bounds = append(bounds, [2]uint64{s, e})
	}
	if k > len(vecs) {
		k = len(vecs)
	}
	assign, cent, err := mlfit.KMeans(vecs, k, 60)
	if err != nil {
		return nil, err
	}
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	sel := &Selection{Method: "simpoint", Profile: p}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for i, a := range assign {
			if a != c {
				continue
			}
			var d float64
			for j := range vecs[i] {
				diff := vecs[i][j] - cent[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		sel.Segments = append(sel.Segments, Segment{
			Epoch:  best,
			Start:  bounds[best][0],
			End:    bounds[best][1],
			Weight: float64(counts[c]) / float64(len(vecs)),
		})
	}
	return sel, nil
}

// maxWarmupRecords bounds the trace prefix replayed (statistics discarded)
// before each segment so caches and predictors reach representative state.
// The full prefix is replayed when shorter.
const maxWarmupRecords = 250_000

// ProjectedCPI replays each selected segment on the timing model — with the
// standard architectural warmup prefix preceding each simulation point — and
// aggregates weighted cycles over weighted instructions. (Epochs are
// fixed-cycle and variable-instruction, so averaging per-segment CPIs would
// bias toward slow phases.)
func (s *Selection) ProjectedCPI(cfg *uarch.Config) (float64, error) {
	var cycles, insts float64
	for _, seg := range s.Segments {
		if seg.End <= seg.Start {
			continue
		}
		warm := seg.Start
		if warm > maxWarmupRecords {
			warm = maxWarmupRecords
		}
		recs := s.Profile.Recs[seg.Start-warm : seg.End]
		res, err := uarch.Simulate(cfg,
			[]trace.Stream{trace.NewSliceStream(s.Profile.Prog, recs)},
			50_000_000, uarch.WithWarmup(warm))
		if err != nil {
			return 0, err
		}
		cycles += seg.Weight * float64(res.Activity.Cycles)
		insts += seg.Weight * float64(res.Activity.Instructions)
	}
	if insts == 0 {
		return 0, errors.New("tracepoints: empty selection")
	}
	return cycles / insts, nil
}

// CPIError returns |projected - actual| / actual for a selection.
func (s *Selection) CPIError(cfg *uarch.Config) (float64, error) {
	proj, err := s.ProjectedCPI(cfg)
	if err != nil {
		return 0, err
	}
	actual := s.Profile.Total.CPI()
	if actual == 0 {
		return 0, errors.New("tracepoints: zero baseline CPI")
	}
	return math.Abs(proj-actual) / actual, nil
}

// GEMMOpShare returns the fraction of selected instructions that are
// MMA/FMA operations — the "number of BLAS API calls comprising GEMM
// kernels" equivalence MMA-aware traces must preserve.
func (s *Selection) GEMMOpShare() float64 {
	var gemm, total float64
	for _, seg := range s.Segments {
		for _, r := range s.Profile.Recs[seg.Start:seg.End] {
			cls := s.Profile.Prog.Code[r.Idx].Class()
			if cls == isa.ClassMMA || cls == isa.ClassVSXFMA {
				gemm += seg.Weight
			}
			total += seg.Weight
		}
	}
	if total == 0 {
		return 0
	}
	return gemm / total
}

// TraceGEMMOpShare is the whole-profile reference for GEMMOpShare.
func (p *Profile) TraceGEMMOpShare() float64 {
	var gemm float64
	for _, r := range p.Recs {
		cls := p.Prog.Code[r.Idx].Class()
		if cls == isa.ClassMMA || cls == isa.ClassVSXFMA {
			gemm++
		}
	}
	return gemm / float64(len(p.Recs))
}
