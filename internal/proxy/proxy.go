// Package proxy is the Chopstix analog (Section III-A): it profiles a
// benchmark's functional execution, extracts its hottest code regions with
// their captured dynamic state, and turns each into an L1-contained endless
// loop ("proxy workload") small enough for slow latch-accurate simulation
// while preserving the benchmark's behaviour mix. Coverage accounting
// reproduces the paper's 41-99% per-benchmark coverage figures.
package proxy

import (
	"fmt"
	"sort"

	"power10sim/internal/isa"
	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/workloads"
)

// Proxy is one extracted snippet: a captured dynamic slice of a hot region,
// replayed as an endless loop.
type Proxy struct {
	Name   string
	Source string // originating benchmark
	// Region is the static code index range [Start, End) of the hot region.
	Start, End int
	// Weight is the region's share of the source's dynamic execution,
	// used for whole-suite projection.
	Weight float64
	// Recs is the captured dynamic slice (code + data state), in an array
	// of its own.
	Recs []isa.DynInst
	prog *isa.Program
}

// Len returns the snippet length in dynamic instructions.
func (p *Proxy) Len() int { return len(p.Recs) }

// Stream returns an endless-loop replay bounded by budget instructions.
func (p *Proxy) Stream(budget uint64) trace.Stream {
	return trace.NewLoopStream(p.prog, p.Recs, budget)
}

// Result is the outcome of extracting proxies from one benchmark.
type Result struct {
	Source  string
	Proxies []*Proxy
	// Coverage is the fraction of the benchmark's dynamic instructions
	// that fall inside the extracted regions.
	Coverage float64
	// TotalDynamic is the profiled dynamic instruction count.
	TotalDynamic uint64
}

// Options tunes the extraction.
type Options struct {
	TopRegions int // hottest regions to keep (paper: top 10 functions)
	MaxSnippet int // maximum snippet length (paper: up to ~22K instructions)
	MinSnippet int // discard shorter captures
	// Invocations captures up to this many distinct dynamic slices per
	// region ("multiple invocations of these top most-executed functions").
	Invocations int
	// ProfileBudget bounds the profiling run.
	ProfileBudget uint64
}

// DefaultOptions mirrors the paper's parameters at simulation scale.
func DefaultOptions() Options {
	return Options{
		TopRegions:    10,
		MaxSnippet:    22_000,
		MinSnippet:    64,
		Invocations:   2,
		ProfileBudget: 400_000,
	}
}

// region is a contiguous static code range with its dynamic heat.
type region struct {
	start, end int
	count      uint64
}

// findRegions groups static instructions into hot regions: contiguous runs
// of instructions whose execution count is at least heatFrac of the hottest
// instruction, allowing small cold gaps (cold error-path blocks inside a
// hot function).
func findRegions(execCount []uint64) []region {
	var max uint64
	for _, c := range execCount {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return nil
	}
	threshold := max / 64
	const gapAllow = 4
	var regions []region
	i := 0
	for i < len(execCount) {
		if execCount[i] <= threshold {
			i++
			continue
		}
		start := i
		var sum uint64
		gap := 0
		end := i
		for i < len(execCount) {
			if execCount[i] > threshold {
				sum += execCount[i]
				gap = 0
				end = i + 1 // exclusive end just past the last hot slot
			} else {
				gap++
				if gap > gapAllow {
					break
				}
			}
			i++
		}
		regions = append(regions, region{start: start, end: end, count: sum})
	}
	sort.Slice(regions, func(a, b int) bool { return regions[a].count > regions[b].count })
	return regions
}

// Extract profiles the workload and produces its proxy set. One VM pass
// records the profile compactly, counting executions per static instruction
// as each block lands; the kept slices are then copied out of the
// recording, so no proxy holds on to the rest of the trace.
func Extract(w *workloads.Workload, opt Options) (*Result, error) {
	budget := opt.ProfileBudget
	if budget == 0 {
		budget = DefaultOptions().ProfileBudget
	}
	rec := trace.NewRecording(w.Prog)
	execCount := make([]uint64, len(w.Prog.Code))
	n := 0
	err := rec.Fill(budget, func(blk []isa.Record) {
		for i := range blk {
			execCount[blk[i].Idx()]++
		}
		n += len(blk)
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: profiling %s: %w", w.Name, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("proxy: %s produced no instructions", w.Name)
	}
	regions := findRegions(execCount)
	if opt.TopRegions > 0 && len(regions) > opt.TopRegions {
		regions = regions[:opt.TopRegions]
	}

	res := &Result{Source: w.Name, TotalDynamic: uint64(n)}
	var covered uint64
	for ri, rg := range regions {
		covered += rg.count
		weight := float64(rg.count) / float64(n)
		// Capture up to Invocations distinct dynamic slices of the region.
		slices := captureSlices(rec, n, rg, opt)
		for si, sl := range slices {
			res.Proxies = append(res.Proxies, &Proxy{
				Name:   fmt.Sprintf("%s.r%d.i%d", w.Name, ri, si),
				Source: w.Name,
				Start:  rg.start,
				End:    rg.end,
				Weight: weight / float64(len(slices)),
				Recs:   sl,
				prog:   w.Prog,
			})
		}
	}
	res.Coverage = float64(covered) / float64(n)
	return res, nil
}

// captureSlices cuts contiguous in-region dynamic slices from the n records
// of rec and copies each out as its own slice.
func captureSlices(rec *trace.Recording, n int, rg region, opt Options) [][]isa.DynInst {
	maxLen := opt.MaxSnippet
	if maxLen <= 0 {
		maxLen = 22_000
	}
	minLen := opt.MinSnippet
	inv := opt.Invocations
	if inv <= 0 {
		inv = 1
	}
	inRegion := func(i int) bool {
		idx := int(rec.At(uint64(i)).Idx())
		return idx >= rg.start && idx < rg.end
	}
	var out [][]isa.DynInst
	i := 0
	for len(out) < inv && i < n {
		for i < n && !inRegion(i) {
			i++
		}
		if i >= n {
			break
		}
		start := i
		escapes := 0
		for i < n && i-start < maxLen {
			if inRegion(i) {
				escapes = 0
			} else {
				escapes++
				if escapes > 8 {
					break
				}
			}
			i++
		}
		if i-start >= minLen {
			sl := make([]isa.DynInst, 0, i-start)
			r := rec.Replay(uint64(start), uint64(i))
			for d, ok := r.Next(); ok; d, ok = r.Next() {
				sl = append(sl, d)
			}
			out = append(out, sl)
		}
		// Skip ahead so invocations are distinct phases.
		i += n / (inv * 4)
	}
	return out
}

// SuiteResult aggregates extraction across a whole benchmark suite.
type SuiteResult struct {
	PerBenchmark []*Result
	TotalProxies int
	MeanCoverage float64
	MinCoverage  float64
	MaxCoverage  float64
}

// ExtractSuite runs Extract over each workload, fanned across up to jobs
// goroutines, and aggregates the results in suite order, so the summary is
// identical for any jobs value. The first failure in suite order is
// returned.
func ExtractSuite(suite []*workloads.Workload, opt Options, jobs int) (*SuiteResult, error) {
	results := make([]*Result, len(suite))
	errs := make([]error, len(suite))
	runner.ForEach(jobs, len(suite), func(i int) {
		results[i], errs[i] = Extract(suite[i], opt)
	})
	out := &SuiteResult{MinCoverage: 1}
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.PerBenchmark = append(out.PerBenchmark, r)
		out.TotalProxies += len(r.Proxies)
		out.MeanCoverage += r.Coverage
		if r.Coverage < out.MinCoverage {
			out.MinCoverage = r.Coverage
		}
		if r.Coverage > out.MaxCoverage {
			out.MaxCoverage = r.Coverage
		}
	}
	if n := len(out.PerBenchmark); n > 0 {
		out.MeanCoverage /= float64(n)
	}
	return out, nil
}
