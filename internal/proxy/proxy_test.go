package proxy

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func TestExtractFindsHotRegions(t *testing.T) {
	w := workloads.Compress()
	res, err := Extract(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proxies) == 0 {
		t.Fatal("no proxies extracted")
	}
	if res.Coverage < 0.4 || res.Coverage > 1.0 {
		t.Errorf("coverage %.2f outside plausible range", res.Coverage)
	}
	for _, p := range res.Proxies {
		if p.Len() < 64 {
			t.Errorf("%s: snippet too short (%d)", p.Name, p.Len())
		}
		if p.Len() > 22_000 {
			t.Errorf("%s: snippet exceeds 22K cap (%d)", p.Name, p.Len())
		}
		if p.Weight <= 0 || p.Weight > 1 {
			t.Errorf("%s: weight %v", p.Name, p.Weight)
		}
	}
}

func TestProxyStreamLoopsEndlessly(t *testing.T) {
	res, err := Extract(workloads.IntCompute(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Proxies[0]
	budget := uint64(3*p.Len() + 5)
	s := p.Stream(budget)
	var n uint64
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != budget {
		t.Errorf("proxy loop delivered %d, want %d (endless loop semantics)", n, budget)
	}
}

func TestProxyRunsOnTimingModel(t *testing.T) {
	res, err := Extract(workloads.MediaVec(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Proxies[0]
	r, err := uarch.Simulate(uarch.POWER10(), []trace.Stream{p.Stream(30_000)}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Activity.Instructions < 29_000 {
		t.Errorf("proxy retired %d on timing model", r.Activity.Instructions)
	}
	if r.IPC() <= 0 {
		t.Error("zero IPC")
	}
}

func TestProxyPreservesBehaviourMix(t *testing.T) {
	// A proxy of the SIMD benchmark must itself be SIMD-heavy.
	w := workloads.MediaVec()
	res, err := Extract(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var flops int
	for _, d := range res.Proxies[0].Recs {
		flops += isa.FlopsOf(w.Prog.Code[d.Idx].Op)
	}
	if flops == 0 {
		t.Error("mediavec proxy lost its SIMD content")
	}
}

func TestSuiteExtractionCoverageShape(t *testing.T) {
	// Paper: per-benchmark coverage between ~41% and ~99%, averaging ~70%,
	// with a rich proxy population.
	sr, err := ExtractSuite(workloads.SPECintSuite(), DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sr.TotalProxies < 20 {
		t.Errorf("only %d proxies across the suite", sr.TotalProxies)
	}
	if sr.MeanCoverage < 0.5 || sr.MeanCoverage > 1.0 {
		t.Errorf("mean coverage %.2f outside [0.5, 1.0]", sr.MeanCoverage)
	}
	if sr.MinCoverage >= sr.MaxCoverage {
		t.Errorf("coverage has no spread: [%.2f, %.2f]", sr.MinCoverage, sr.MaxCoverage)
	}
}

func TestFindRegionsSplitsOnColdGaps(t *testing.T) {
	counts := make([]uint64, 100)
	for i := 10; i < 20; i++ {
		counts[i] = 1000
	}
	for i := 60; i < 80; i++ {
		counts[i] = 500
	}
	regions := findRegions(counts)
	if len(regions) != 2 {
		t.Fatalf("found %d regions, want 2", len(regions))
	}
	// Hottest first.
	if regions[0].count < regions[1].count {
		t.Error("regions not sorted by heat")
	}
	if regions[0].start != 10 || regions[0].end != 20 {
		t.Errorf("region 0 = [%d, %d), want [10, 20)", regions[0].start, regions[0].end)
	}
}

func TestFindRegionsEmptyProfile(t *testing.T) {
	if regions := findRegions(make([]uint64, 50)); regions != nil {
		t.Error("regions from empty profile")
	}
}

// extractByCapture is Extract as it was before it read a compact recording:
// it captures the whole profile as isa.DynInst records, counts them, and
// cuts each slice out of the capture. It is the reference the recorded
// extraction must match record for record.
func extractByCapture(w *workloads.Workload, opt Options) (*Result, error) {
	budget := opt.ProfileBudget
	if budget == 0 {
		budget = DefaultOptions().ProfileBudget
	}
	recs, err := trace.Capture(w.Prog, budget)
	if err != nil {
		return nil, fmt.Errorf("proxy: profiling %s: %w", w.Name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("proxy: %s produced no instructions", w.Name)
	}
	execCount := make([]uint64, len(w.Prog.Code))
	for i := range recs {
		execCount[recs[i].Idx]++
	}
	regions := findRegions(execCount)
	if opt.TopRegions > 0 && len(regions) > opt.TopRegions {
		regions = regions[:opt.TopRegions]
	}

	res := &Result{Source: w.Name, TotalDynamic: uint64(len(recs))}
	var covered uint64
	for ri, rg := range regions {
		covered += rg.count
		weight := float64(rg.count) / float64(len(recs))
		slices := captureSlicesByCapture(recs, rg, opt)
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
	res.Coverage = float64(covered) / float64(len(recs))
	return res, nil
}

// captureSlicesByCapture is captureSlices over a captured trace.
func captureSlicesByCapture(recs []isa.DynInst, rg region, opt Options) [][]isa.DynInst {
	maxLen := opt.MaxSnippet
	if maxLen <= 0 {
		maxLen = 22_000
	}
	minLen := opt.MinSnippet
	inv := opt.Invocations
	if inv <= 0 {
		inv = 1
	}
	inRegion := func(idx int32) bool { return int(idx) >= rg.start && int(idx) < rg.end }
	var out [][]isa.DynInst
	i := 0
	for len(out) < inv && i < len(recs) {
		for i < len(recs) && !inRegion(recs[i].Idx) {
			i++
		}
		if i >= len(recs) {
			break
		}
		start := i
		escapes := 0
		for i < len(recs) && i-start < maxLen {
			if inRegion(recs[i].Idx) {
				escapes = 0
			} else {
				escapes++
				if escapes > 8 {
					break
				}
			}
			i++
		}
		sl := recs[start:i]
		if len(sl) >= minLen {
			out = append(out, sl)
		}
		i += len(recs) / (inv * 4)
	}
	return out
}

// checkOwned fails unless every proxy's records fill their own array, so
// no proxy keeps more of the profile alive than its snippet.
func checkOwned(t *testing.T, res *Result) {
	t.Helper()
	for _, p := range res.Proxies {
		if cap(p.Recs) != len(p.Recs) {
			t.Errorf("%s: %d records in an array of %d", p.Name, len(p.Recs), cap(p.Recs))
		}
	}
}

// TestExtractMatchesCapture: extraction from the compact recording returns
// exactly what extraction from a whole captured trace returns, every record
// of every proxy included. The budgets straddle the recorder's 4,096-record
// block and include the quick and default profiling budgets; pathfind,
// intcompute and boardeval halt inside the quick one.
func TestExtractMatchesCapture(t *testing.T) {
	suite := workloads.SPECintSuite()
	suite = append(suite, workloads.Daxpy(4096, 200))
	mma, _, err := workloads.DGEMMMMA(workloads.GEMMSize{M: 32, N: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	suite = append(suite, mma)
	var halted int
	for _, w := range suite {
		for _, budget := range []uint64{4095, 4096, 4097, 150_000, 400_000} {
			opt := DefaultOptions()
			opt.ProfileBudget = budget
			got, err := Extract(w, opt)
			if err != nil {
				t.Fatalf("%s at %d: %v", w.Name, budget, err)
			}
			want, err := extractByCapture(w, opt)
			if err != nil {
				t.Fatalf("%s at %d: reference: %v", w.Name, budget, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d: recorded extraction (%d proxies, %d dynamic, coverage %v) differs from the captured one (%d, %d, %v)",
					w.Name, budget, len(got.Proxies), got.TotalDynamic, got.Coverage, len(want.Proxies), want.TotalDynamic, want.Coverage)
				for j := range min(len(got.Proxies), len(want.Proxies)) {
					if g, r := got.Proxies[j], want.Proxies[j]; !reflect.DeepEqual(g, r) {
						t.Errorf("  first differing proxy: %s, %d records; reference %s, %d records", g.Name, g.Len(), r.Name, r.Len())
						break
					}
				}
			}
			checkOwned(t, got)
			if got.TotalDynamic < budget {
				halted++
			}
		}
	}
	if halted == 0 {
		t.Error("no program halted before its budget; the test lost that case")
	}
}

// TestExtractSuiteSameForAnyJobs: the suite's extraction does not depend on
// how many goroutines it is fanned across.
func TestExtractSuiteSameForAnyJobs(t *testing.T) {
	suite := workloads.SPECintSuite()
	opt := DefaultOptions()
	opt.ProfileBudget = 150_000
	one, err := ExtractSuite(suite, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ExtractSuite(suite, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Error("ExtractSuite at jobs 4 differs from jobs 1")
	}
	for _, r := range four.PerBenchmark {
		checkOwned(t, r)
	}
}

// TestExtractFailsOnVMFault: a program whose VM faults after the recorder's
// first block fails its extraction with the VM's error, and the recorder's
// goroutine is gone once Extract returns.
func TestExtractFailsOnVMFault(t *testing.T) {
	b := isa.NewBuilder("boom").Li(isa.GPR(3), 9999)
	for i := 0; i < 5000; i++ {
		b.Addi(isa.GPR(1), isa.GPR(1), 1)
	}
	w := &workloads.Workload{Name: "boom", Prog: b.Br(isa.GPR(3)).Halt().MustBuild()}
	base := runtime.NumGoroutine()
	const want = "proxy: profiling boom: boom @5001: indirect target 9999 out of range"
	if res, err := Extract(w, DefaultOptions()); err == nil || err.Error() != want {
		t.Errorf("Extract = %v, %v; want error %q", res, err, want)
	}
	// A goroutine leaves the count just after the channel close its reader
	// sees, so wait for the count to come back.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Extract, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
