package trace

import (
	"testing"

	"power10sim/internal/isa"
)

func countedLoop(n int64) *isa.Program {
	return isa.NewBuilder("counted").
		Li(isa.GPR(1), 0).
		Li(isa.GPR(2), n).
		Li(isa.GPR(3), 0x8000).
		Label("top").
		Ld(isa.GPR(4), isa.GPR(3), 0).
		Add(isa.GPR(4), isa.GPR(4), isa.GPR(1)).
		St(isa.GPR(4), isa.GPR(3), 0).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top").
		Halt().
		MustBuild()
}

func TestVMStreamDeliversAndResets(t *testing.T) {
	p := countedLoop(10)
	s := NewVMStream(p, 1000)
	var n int
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3+10*5+1 {
		t.Errorf("delivered %d records, want %d", n, 3+10*5+1)
	}
	s.Reset()
	if _, ok := s.Next(); !ok {
		t.Error("stream empty after Reset")
	}
}

func TestVMStreamBudget(t *testing.T) {
	p := countedLoop(1_000_000)
	s := NewVMStream(p, 100)
	var n int
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Errorf("budget delivered %d, want 100", n)
	}
}

func TestCaptureAndSliceStreamRoundTrip(t *testing.T) {
	p := countedLoop(5)
	recs, err := Capture(p, 10000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSliceStream(p, recs)
	for i := range recs {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("slice stream ended early at %d", i)
		}
		if got != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("slice stream did not end")
	}
}

func TestLoopStreamWrapsAndHonorsBudget(t *testing.T) {
	p := countedLoop(2)
	recs, err := Capture(p, 10000)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(len(recs)*3 + 1)
	s := NewLoopStream(p, recs, budget)
	var n uint64
	firstPC := recs[0].PC
	var wraps int
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		if n > 0 && d.PC == firstPC && d.Idx == recs[0].Idx {
			wraps++
		}
		n++
	}
	if n != budget {
		t.Errorf("loop stream delivered %d, want %d", n, budget)
	}
	if wraps < 3 {
		t.Errorf("loop stream wrapped %d times, want >= 3", wraps)
	}
}

func TestSummarizeCounts(t *testing.T) {
	p := countedLoop(10)
	recs, err := Capture(p, 10000)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(p, recs)
	if st.Instructions != uint64(len(recs)) {
		t.Errorf("instructions = %d, want %d", st.Instructions, len(recs))
	}
	if st.ByClass[isa.ClassLoad] != 10 || st.ByClass[isa.ClassStore] != 10 {
		t.Errorf("load/store = %d/%d, want 10/10", st.ByClass[isa.ClassLoad], st.ByClass[isa.ClassStore])
	}
	if st.Branches != 10 || st.Taken != 9 {
		t.Errorf("branches=%d taken=%d, want 10/9", st.Branches, st.Taken)
	}
	if st.LoadBytes != 80 || st.StoreBytes != 80 {
		t.Errorf("bytes = %d/%d, want 80/80", st.LoadBytes, st.StoreBytes)
	}
	if st.UniqueLines != 1 {
		t.Errorf("unique lines = %d, want 1 (single 64B line)", st.UniqueLines)
	}
	if st.Mix(isa.ClassLoad) <= 0 || st.Mix(isa.ClassLoad) >= 1 {
		t.Errorf("load mix = %v out of range", st.Mix(isa.ClassLoad))
	}
}

func TestGEMMRatio(t *testing.T) {
	p := isa.NewBuilder("gemmish").
		Xvf64gerpp(isa.ACC(0), isa.VSR(0), isa.VSR(2)).
		Xvmaddadp(isa.VSR(4), isa.VSR(5), isa.VSR(6)).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Halt().
		MustBuild()
	recs, err := Capture(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(p, recs)
	if got := st.GEMMRatio(); got != 0.4 {
		t.Errorf("GEMM ratio = %v, want 0.4", got)
	}
	if st.Flops != 16+4 {
		t.Errorf("flops = %d, want 20", st.Flops)
	}
}

func TestEmptyStatsSafe(t *testing.T) {
	var st Stats
	if st.Mix(isa.ClassLoad) != 0 || st.GEMMRatio() != 0 {
		t.Error("empty stats should report zero ratios")
	}
}

func TestVMStreamSurfacesExecutionErrors(t *testing.T) {
	// An out-of-range indirect branch kills the stream; Err reports it.
	p := isa.NewBuilder("boom").
		Li(isa.GPR(1), 9999).
		Br(isa.GPR(1)).
		Halt().
		MustBuild()
	s := NewVMStream(p, 100)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if s.Err() == nil {
		t.Error("execution error not surfaced")
	}
	if _, ok := s.Next(); ok {
		t.Error("stream continued after error")
	}
}

func TestSliceStreamEmptyAndBudgetless(t *testing.T) {
	p := countedLoop(1)
	s := NewSliceStream(p, nil)
	if _, ok := s.Next(); ok {
		t.Error("empty slice stream delivered")
	}
	if s.Len() != 0 {
		t.Error("empty length")
	}
	recs, err := Capture(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLoopStream(p, recs, 0) // zero budget: loops bounded by caller
	ls.Budget = uint64(len(recs))
	var n int
	for {
		if _, ok := ls.Next(); !ok {
			break
		}
		n++
	}
	if n != len(recs) {
		t.Errorf("delivered %d", n)
	}
	if got := ls.Records(); len(got) != len(recs) {
		t.Error("records accessor mismatch")
	}
}

func TestSummarizeEmptyRecords(t *testing.T) {
	p := countedLoop(1)
	for _, recs := range [][]isa.DynInst{nil, {}} {
		st := Summarize(p, recs)
		if st != (Stats{}) {
			t.Errorf("Summarize(%d records) = %+v, want zero Stats", len(recs), st)
		}
		if st.Mix(isa.ClassLoad) != 0 || st.GEMMRatio() != 0 {
			t.Error("empty summary reports nonzero ratios")
		}
	}
}

func TestCaptureZeroBudget(t *testing.T) {
	recs, err := Capture(countedLoop(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("zero budget captured %d records", len(recs))
	}
}

func TestSummarizeSingleClassMix(t *testing.T) {
	// A straight-line ALU-only body: the entire mix lands in one class, every
	// other class reads exactly zero, and the fractions sum to one.
	p := isa.NewBuilder("aluonly").
		Li(isa.GPR(1), 0).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Add(isa.GPR(2), isa.GPR(1), isa.GPR(1)).
		Halt().
		MustBuild()
	recs, err := Capture(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(p, recs[:len(recs)-1]) // drop the trailing Halt record
	if got := st.Mix(isa.ClassIntALU); got != 1 {
		t.Errorf("single-class mix = %v, want 1", got)
	}
	var sum float64
	for c := 0; c < isa.NumClasses; c++ {
		if cl := isa.Class(c); cl != isa.ClassIntALU && st.Mix(cl) != 0 {
			t.Errorf("class %v has mix %v, want 0", cl, st.Mix(cl))
		}
		sum += st.Mix(isa.Class(c))
	}
	if sum != 1 {
		t.Errorf("mixes sum to %v, want 1", sum)
	}
	if st.Branches != 0 || st.LoadBytes != 0 || st.StoreBytes != 0 || st.UniqueLines != 0 {
		t.Errorf("ALU-only stats leaked mem/branch counts: %+v", st)
	}
}
