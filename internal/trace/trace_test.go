package trace

import (
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/workloads"
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

func TestGEMMRatio(t *testing.T) {
	p := isa.NewBuilder("gemmish").
		Xvf64gerpp(isa.ACC(0), isa.VSR(0), isa.VSR(2)).
		Xvmaddadp(isa.VSR(4), isa.VSR(5), isa.VSR(6)).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Halt().
		MustBuild()
	got, err := GEMMRatio(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.4 {
		t.Errorf("GEMM ratio = %v, want 0.4", got)
	}
	if got, err := GEMMRatio(p, 0); got != 0 || err != nil {
		t.Errorf("zero budget: ratio %v, err %v; want 0, nil", got, err)
	}
}

// TestGEMMRatioMatchesCapture holds the counting pass to a captured trace:
// the same MMA and VSX-FMA share, exactly, on Fig. 6's four programs at the
// quick budget.
func TestGEMMRatioMatchesCapture(t *testing.T) {
	for _, mk := range []func(bool) (*workloads.Workload, error){workloads.ResNet50, workloads.BERTLarge} {
		for _, mma := range []bool{false, true} {
			w, err := mk(mma)
			if err != nil {
				t.Fatal(err)
			}
			budget := max(w.Budget/2, 4096)
			recs, err := Capture(w.Prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			var g int
			for i := range recs {
				if c := w.Prog.Code[recs[i].Idx].Class(); c == isa.ClassMMA || c == isa.ClassVSXFMA {
					g++
				}
			}
			want := float64(g) / float64(len(recs))
			got, err := GEMMRatio(w.Prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got == 0 {
				t.Errorf("%s: GEMMRatio %v, captured trace %v (%d of %d)", w.Name, got, want, g, len(recs))
			}
		}
	}
}

// TestGEMMRatioSurfacesExecutionErrors: a program that fails mid-run
// returns its error, not a ratio over the instructions before it.
func TestGEMMRatioSurfacesExecutionErrors(t *testing.T) {
	p := isa.NewBuilder("boom").
		Xvmaddadp(isa.VSR(4), isa.VSR(5), isa.VSR(6)).
		Li(isa.GPR(1), 9999).
		Br(isa.GPR(1)).
		Halt().
		MustBuild()
	if got, err := GEMMRatio(p, 100); err == nil {
		t.Errorf("GEMMRatio = %v with no error", got)
	}
}

// TestVMStreamSurfacesExecutionErrors: an out-of-range indirect branch
// kills the stream and Err reports it. The read-ahead stream must end after
// the same records with the same error, both when the fault comes in its
// first block and when it comes several blocks in.
func TestVMStreamSurfacesExecutionErrors(t *testing.T) {
	boom := isa.NewBuilder("boom").
		Li(isa.GPR(1), 9999).
		Br(isa.GPR(1)).
		Halt().
		MustBuild()
	// r1 counts a two-instruction loop down from 10000 before the branch.
	runaway := isa.NewBuilder("runaway").
		Li(isa.GPR(1), 10_000).
		Li(isa.GPR(2), 0).
		Li(isa.GPR(3), 9999).
		Label("loop").
		Addi(isa.GPR(1), isa.GPR(1), -1).
		Bc(isa.CondNE, isa.GPR(1), isa.GPR(2), "loop").
		Br(isa.GPR(3)).
		Halt().
		MustBuild()
	for _, p := range []*isa.Program{boom, runaway} {
		vs := NewVMStream(p, 1<<20)
		ra := NewReadAhead(p, 1<<20)
		var n int
		for ; ; n++ {
			v, vok := vs.Next()
			r, rok := ra.Next()
			if vok != rok || v != r {
				t.Fatalf("%s: record %d: read-ahead %+v (ok=%v), VMStream %+v (ok=%v)", p.Name, n, r, rok, v, vok)
			}
			if !vok {
				break
			}
		}
		ra.Close()
		if vs.Err() == nil {
			t.Errorf("%s: execution error not surfaced after %d records", p.Name, n)
		}
		if ra.Err() == nil || ra.Err().Error() != vs.Err().Error() {
			t.Errorf("%s: read-ahead err %v, VMStream err %v", p.Name, ra.Err(), vs.Err())
		}
		if _, ok := vs.Next(); ok {
			t.Errorf("%s: stream continued after error", p.Name)
		}
		if p == runaway && n <= 2*blockLen {
			t.Errorf("%s: faulted after %d records, want more than two blocks", p.Name, n)
		}
	}
}

func TestSliceStreamEmptyAndBudgetless(t *testing.T) {
	p := countedLoop(1)
	s := NewSliceStream(p, nil)
	if _, ok := s.Next(); ok {
		t.Error("empty slice stream delivered")
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
