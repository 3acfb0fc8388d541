package tracepoints

import (
	"reflect"
	"testing"

	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func collect(t *testing.T, w *workloads.Workload) *Profile {
	t.Helper()
	p, err := Collect(w, uarch.POWER10(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCollectEpochsCoverTrace(t *testing.T) {
	p := collect(t, workloads.Compress())
	if len(p.Epochs) < 5 {
		t.Fatalf("only %d epochs", len(p.Epochs))
	}
	var last uint64
	var insts uint64
	for i, e := range p.Epochs {
		if e.StartInst != last {
			t.Errorf("epoch %d starts at %d, want %d (contiguous)", i, e.StartInst, last)
		}
		last = e.EndInst
		insts += e.Act.Instructions
	}
	if insts != p.Total.Instructions {
		t.Errorf("epoch instructions %d != total %d", insts, p.Total.Instructions)
	}
	if last != uint64(len(p.Recs)) {
		t.Errorf("epochs end at %d, trace has %d records", last, len(p.Recs))
	}
}

func TestTracepointSelectionWeightsSumToOne(t *testing.T) {
	p := collect(t, workloads.Compress())
	sel, err := SelectTracepoints(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Segments) == 0 {
		t.Fatal("empty selection")
	}
	if len(sel.Segments) >= len(p.Epochs) {
		t.Errorf("selection (%d) did not compress the %d epochs", len(sel.Segments), len(p.Epochs))
	}
	var w float64
	for _, s := range sel.Segments {
		w += s.Weight
		if s.End <= s.Start {
			t.Errorf("segment [%d, %d) empty", s.Start, s.End)
		}
	}
	if w < 0.999 || w > 1.001 {
		t.Errorf("weights sum to %v", w)
	}
}

// TestTracepointSelectionIsDeterministic: repeated selections on one profile
// return the same segments in the same order, so the projected CPI, which
// sums the segments in that order, is the same float on every call.
func TestTracepointSelectionIsDeterministic(t *testing.T) {
	p := collect(t, workloads.Compress())
	first, err := SelectTracepoints(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Segments) < 2 {
		t.Fatalf("%d segments: too few to show an order", len(first.Segments))
	}
	for i := 1; i < 20; i++ {
		sel, err := SelectTracepoints(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel.Segments, first.Segments) {
			t.Fatalf("call %d: segments %v, first call %v", i+1, sel.Segments, first.Segments)
		}
	}
}

func TestTracepointsProjectCPIAccurately(t *testing.T) {
	// Paper: trace-based projection within ~5% of the reference.
	cfg := uarch.POWER10()
	for _, w := range []*workloads.Workload{workloads.Compress(), workloads.DSim()} {
		p, err := Collect(w, cfg, 2000)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := SelectTracepoints(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sel.CPIError(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.15 {
			t.Errorf("%s: tracepoint CPI error %.1f%%", w.Name, e*100)
		}
	}
}

func TestSimpointSelectionBasics(t *testing.T) {
	p := collect(t, workloads.Compress())
	sel, err := SelectSimpoints(p, 5000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Segments) == 0 || len(sel.Segments) > 6 {
		t.Fatalf("%d simpoint segments", len(sel.Segments))
	}
	var w float64
	for _, s := range sel.Segments {
		w += s.Weight
	}
	if w < 0.999 || w > 1.001 {
		t.Errorf("weights sum to %v", w)
	}

	// Degenerate inputs: no records and k = 0 are errors, and a k above the
	// interval count clamps to it.
	if _, err := SelectSimpoints(&Profile{Name: p.Name, Prog: p.Prog}, 5000, 6); err == nil {
		t.Error("profile with no records accepted")
	}
	if _, err := SelectSimpoints(p, 5000, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	const interval = 20_000
	nInt := (len(p.Recs) + interval - 1) / interval
	sel, err = SelectSimpoints(p, interval, nInt+3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Segments) == 0 || len(sel.Segments) > nInt {
		t.Errorf("k = %d over %d intervals: %d segments", nInt+3, nInt, len(sel.Segments))
	}
	// dsim's 80 intervals have 4 distinct basic-block vectors: the clusters
	// k-means leaves empty are dropped, one segment per vector remains.
	d := workloads.DSim()
	recs, err := trace.Capture(d.Prog, d.Budget)
	if err != nil {
		t.Fatal(err)
	}
	sel, err = SelectSimpoints(&Profile{Name: d.Name, Prog: d.Prog, Recs: recs}, 5000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Segments) != 4 {
		t.Errorf("dsim, k = 16: %d segments, want 4", len(sel.Segments))
	}
}

// TestTracepointsBeatSimpointsOnInterpretedCode reproduces the paper's
// motivation: BBV clustering is blind to data-dependent behaviour (the same
// dispatch-loop blocks execute regardless of bytecode), while counter-based
// binning separates the performance phases of interpreted-language code.
func TestTracepointsBeatSimpointsOnInterpretedCode(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.Interp()
	w.Warmup = 0 // profile end to end
	p, err := Collect(w, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := SelectTracepoints(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SelectSimpoints(p, 5000, len(tp.Segments))
	if err != nil {
		t.Fatal(err)
	}
	te, err := tp.CPIError(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se, err := sp.CPIError(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if te > se+0.02 {
		t.Errorf("tracepoints error %.2f%% clearly worse than simpoints %.2f%% on interp", te*100, se*100)
	}
}

// TestMMAAwareTraceKeepsGEMMShare: the selected trace must preserve the
// GEMM-operation fraction of the end-to-end AI application.
func TestMMAAwareTraceKeepsGEMMShare(t *testing.T) {
	w, err := workloads.ResNet50(true)
	if err != nil {
		t.Fatal(err)
	}
	w.Budget = 400_000
	p, err := Collect(w, uarch.POWER10(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectTracepoints(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := p.TraceGEMMOpShare()
	got := sel.GEMMOpShare()
	if ref <= 0 {
		t.Fatal("profile has no GEMM content")
	}
	if got < ref*0.7 || got > ref*1.3 {
		t.Errorf("selected GEMM share %.3f vs trace %.3f (must stay representative)", got, ref)
	}
}

func TestSelectionErrorsOnEmptyInput(t *testing.T) {
	if _, err := SelectTracepoints(&Profile{}, 4); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := SelectSimpoints(&Profile{}, 0, 3); err == nil {
		t.Error("zero interval accepted")
	}
}
