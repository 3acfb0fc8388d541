package proxy

import (
	"testing"

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
