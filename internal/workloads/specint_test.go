package workloads

import (
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
)

func TestSuiteBuildsAndRuns(t *testing.T) {
	suite := SPECintSuite()
	if len(suite) != 10 {
		t.Fatalf("suite size %d, want 10", len(suite))
	}
	seen := map[string]bool{}
	for _, w := range suite {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Category != CatSPECint {
			t.Errorf("%s: category %q", w.Name, w.Category)
		}
		if err := w.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		recs, err := trace.Capture(w.Prog, w.Budget)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if uint64(len(recs)) < w.Budget/2 {
			t.Errorf("%s: only %d records for budget %d (terminated early?)",
				w.Name, len(recs), w.Budget)
		}
	}
}

func TestSuiteBehaviouralDiversity(t *testing.T) {
	// The suite must cover distinct regions of behaviour space: branch
	// density, memory traffic, SIMD content, footprint.
	stats := map[string]trace.Stats{}
	for _, w := range SPECintSuite() {
		recs, err := trace.Capture(w.Prog, w.Budget)
		if err != nil {
			t.Fatal(err)
		}
		stats[w.Name] = trace.Summarize(w.Prog, recs)
	}
	if s := stats["interp"]; s.ByClass[isa.ClassIndirBranch] == 0 {
		t.Error("interp has no indirect branches")
	}
	if s := stats["mediavec"]; s.Flops == 0 {
		t.Error("mediavec has no SIMD flops")
	}
	if s := stats["intcompute"]; s.LoadBytes != 0 {
		t.Error("intcompute touches memory; want pure integer")
	}
	g := stats["graphopt"]
	if g.UniqueLines < 8000 {
		t.Errorf("graphopt working set %d lines, want >8000 (1.5 MiB chase)", g.UniqueLines)
	}
	small := stats["boardeval"]
	if small.UniqueLines > 100 {
		t.Errorf("boardeval working set %d lines, want tiny", small.UniqueLines)
	}
	// Branch densities must span a wide range.
	brMin, brMax := 1.0, 0.0
	for _, s := range stats {
		d := float64(s.Branches) / float64(s.Instructions)
		if d < brMin {
			brMin = d
		}
		if d > brMax {
			brMax = d
		}
	}
	if brMax < 2*brMin {
		t.Errorf("branch densities too uniform: [%.3f, %.3f]", brMin, brMax)
	}
}

func TestChaseImageIsSingleCycle(t *testing.T) {
	const entries = 64
	img := chaseImage(0x1000, entries, 64*64, 9)
	// Decode and walk the chain; it must visit all entries exactly once.
	next := map[uint64]uint64{}
	for i := 0; i+8 <= len(img); i += 8 {
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(img[i+j]) << (8 * j)
		}
		if v != 0 {
			next[0x1000+uint64(i)] = v
		}
	}
	if len(next) != entries {
		t.Fatalf("chain has %d links, want %d", len(next), entries)
	}
	seen := map[uint64]bool{}
	p := uint64(0x1000)
	for i := 0; i < entries; i++ {
		if seen[p] {
			t.Fatalf("chain revisits %#x after %d steps", p, i)
		}
		seen[p] = true
		var ok bool
		p, ok = next[p]
		if !ok {
			t.Fatalf("chain broken at step %d", i)
		}
	}
	if p != 0x1000 {
		t.Error("chain does not close")
	}
}

func TestAIModelsBuildAndHaveGEMMCharacter(t *testing.T) {
	for _, mma := range []bool{false, true} {
		rn, err := ResNet50(mma)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := BERTLarge(mma)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Workload{rn, bt} {
			recs, err := trace.Capture(w.Prog, w.Budget)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			st := trace.Summarize(w.Prog, recs)
			if st.GEMMRatio() < 0.2 {
				t.Errorf("%s: GEMM ratio %.2f too low", w.Name, st.GEMMRatio())
			}
			if mma && st.ByClass[isa.ClassMMA] == 0 {
				t.Errorf("%s: no MMA ops in MMA build", w.Name)
			}
			if !mma && st.ByClass[isa.ClassMMA] != 0 {
				t.Errorf("%s: MMA ops in VSU build", w.Name)
			}
		}
	}
}

func TestMMABuildShrinksAIInstructionCount(t *testing.T) {
	vsu, err := ResNet50(false)
	if err != nil {
		t.Fatal(err)
	}
	mma, err := ResNet50(true)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := trace.Capture(vsu.Prog, vsu.Budget)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := trace.Capture(mma.Prog, mma.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm) >= len(rv) {
		t.Errorf("MMA build %d instructions vs VSU %d, want fewer", len(rm), len(rv))
	}
}

func TestBERTHasHigherGEMMRatioThanResNet(t *testing.T) {
	// Fig. 6: BERT-Large has a larger proportion of GEMM instructions.
	ratios := map[string]float64{}
	for _, build := range []func(bool) (*Workload, error){ResNet50, BERTLarge} {
		w, err := build(false)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Capture(w.Prog, w.Budget)
		if err != nil {
			t.Fatal(err)
		}
		st := trace.Summarize(w.Prog, recs)
		ratios[w.Name] = st.GEMMRatio()
	}
	if ratios["bertlarge-vsu"] <= ratios["resnet50-vsu"] {
		t.Errorf("GEMM ratios: bert %.3f <= resnet %.3f, want higher for BERT",
			ratios["bertlarge-vsu"], ratios["resnet50-vsu"])
	}
}

func TestStressmarkAndIdleBuild(t *testing.T) {
	for _, w := range []*Workload{Stressmark(true), Stressmark(false), ActiveIdle()} {
		recs, err := trace.Capture(w.Prog, w.Budget)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
	}
	sm, err := trace.Capture(Stressmark(true).Prog, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Summarize(Stressmark(true).Prog, sm)
	if st.ByClass[isa.ClassMMA] == 0 || st.ByClass[isa.ClassVSXFMA] == 0 {
		t.Error("stressmark missing MMA or VSX content")
	}
}
