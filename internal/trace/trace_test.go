package trace

import (
	"bytes"
	"slices"
	"strings"
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

func TestTraceFileRoundTrip(t *testing.T) {
	p := countedLoop(50)
	recs, err := Capture(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.Name, recs); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReadTrace(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if name != p.Name {
		t.Errorf("name %q, want %q", name, p.Name)
	}
	if len(got) != len(recs) {
		t.Fatalf("length %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Idx != recs[i].Idx || got[i].Taken != recs[i].Taken ||
			got[i].EA != recs[i].EA || got[i].PC != recs[i].PC {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
	// NextPC reconstruction must match the original within the body.
	for i := 0; i < len(recs)-1; i++ {
		if got[i].NextPC != recs[i].NextPC {
			t.Fatalf("record %d NextPC %#x vs %#x", i, got[i].NextPC, recs[i].NextPC)
		}
	}
}

func TestTraceFileReplaySimulatesIdentically(t *testing.T) {
	// A trace read back from disk must drive the timing model to exactly
	// the same cycle count as the original capture.
	p := countedLoop(200)
	recs, err := Capture(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.Name, recs); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatal("length mismatch")
	}
	// Compare the streams record by record (the timing model consumes
	// exactly these fields).
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestTraceFileCompact(t *testing.T) {
	p := countedLoop(5000)
	recs, err := Capture(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.Name, recs); err != nil {
		t.Fatal(err)
	}
	perRec := float64(buf.Len()) / float64(len(recs))
	if perRec > 4.0 {
		t.Errorf("trace uses %.1f bytes/record, want compact (<4)", perRec)
	}
}

func TestTraceFileRejectsGarbage(t *testing.T) {
	p := countedLoop(5)
	if _, _, err := ReadTrace(bytes.NewReader([]byte("XXXX")), p); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader(nil), p); err == nil {
		t.Error("empty accepted")
	}
	// Header counts that no input backs must fail, not allocate: 2^40
	// records, a name length of 2^64-1, and one past the end of the file.
	for _, data := range []string{
		"P10T\x00\x80\x80\x80\x80\x80\x20",
		"P10T\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
		"P10T\x80\x80\x40counted",
	} {
		if _, _, err := ReadTrace(strings.NewReader(data), p); err == nil {
			t.Errorf("%q accepted", data)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace-file reader that
// p10trace -mode emit reads back. It must never panic, and a trace it
// accepts must re-encode to a file that reads back to the same name and
// records. The committed corpus under testdata/fuzz/FuzzReadTrace holds a
// captured trace, a truncation, a bad magic, and header counts no input
// backs: 2^40 records in 11 bytes, a name length of 2^64-1, and a name
// length past the end of the file.
func FuzzReadTrace(f *testing.F) {
	p := countedLoop(3)
	f.Fuzz(func(t *testing.T, data []byte) {
		name, recs, err := ReadTrace(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, name, recs); err != nil {
			t.Fatal(err)
		}
		name2, recs2, err := ReadTrace(&buf, p)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v", err)
		}
		if name2 != name || !slices.Equal(recs2, recs) {
			t.Fatalf("round trip changed the trace: %q %+v, then %q %+v", name, recs, name2, recs2)
		}
	})
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
