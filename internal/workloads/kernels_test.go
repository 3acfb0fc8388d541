package workloads

import (
	"encoding/binary"
	"math"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
)

func readF64(t *testing.T, vm *isa.VM, addr uint64, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	for i := range out {
		var buf [8]byte
		for j := range buf {
			buf[j] = vm.Mem.ByteAt(addr + uint64(8*i+j))
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return out
}

func readF32(t *testing.T, vm *isa.VM, addr uint64, n int) []float32 {
	t.Helper()
	out := make([]float32, n)
	for i := range out {
		var buf [4]byte
		for j := range buf {
			buf[j] = vm.Mem.ByteAt(addr + uint64(4*i+j))
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))
	}
	return out
}

func runToHalt(t *testing.T, p *isa.Program) *isa.VM {
	t.Helper()
	vm := isa.NewVM(p)
	if _, err := vm.Run(50_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if !vm.Halted() {
		t.Fatal("kernel did not halt within budget")
	}
	return vm
}

func TestDGEMMVSUComputesCorrectProduct(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 12}
	w, ref, err := DGEMMVSU(s)
	if err != nil {
		t.Fatal(err)
	}
	vm := runToHalt(t, w.Prog)
	got := readF64(t, vm, addrC, s.M*s.N)
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-9 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestDGEMMMMAComputesCorrectProduct(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 12}
	w, ref, err := DGEMMMMA(s)
	if err != nil {
		t.Fatal(err)
	}
	vm := runToHalt(t, w.Prog)
	got := readF64(t, vm, addrC, s.M*s.N)
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-9 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestDGEMMVariantsAgree(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 20}
	wv, refV, err := DGEMMVSU(s)
	if err != nil {
		t.Fatal(err)
	}
	wm, refM, err := DGEMMMMA(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refV {
		if refV[i] != refM[i] {
			t.Fatal("reference results differ between variants")
		}
	}
	gv := readF64(t, runToHalt(t, wv.Prog), addrC, s.M*s.N)
	gm := readF64(t, runToHalt(t, wm.Prog), addrC, s.M*s.N)
	for i := range gv {
		if math.Abs(gv[i]-gm[i]) > 1e-9 {
			t.Fatalf("VSU and MMA codings disagree at %d: %v vs %v", i, gv[i], gm[i])
		}
	}
}

func TestSGEMMMMAComputesCorrectProduct(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 10}
	w, ref, err := SGEMMMMA(s)
	if err != nil {
		t.Fatal(err)
	}
	vm := runToHalt(t, w.Prog)
	got := readF32(t, vm, addrC, s.M*s.N)
	for i := range ref {
		if math.Abs(float64(got[i]-ref[i])) > 1e-3 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestSGEMMVSUComputesCorrectProduct(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 10}
	w, ref, err := SGEMMVSU(s)
	if err != nil {
		t.Fatal(err)
	}
	vm := runToHalt(t, w.Prog)
	got := readF32(t, vm, addrC, s.M*s.N)
	for i := range ref {
		if math.Abs(float64(got[i]-ref[i])) > 1e-3 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestGEMMFlopCountsMatchTheory(t *testing.T) {
	s := GEMMSize{M: 8, N: 16, K: 8}
	want := uint64(2 * 2 * s.M * s.N * s.K) // 2 flops per MAC, two passes
	for _, mk := range []func(GEMMSize) (*Workload, []float64, error){DGEMMVSU, DGEMMMMA} {
		w, _, err := mk(s)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Capture(w.Prog, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if st := summarize(w.Prog, recs); st.flops != want {
			t.Errorf("%s flops = %d, want %d", w.Name, st.flops, want)
		}
	}
}

func TestMMAUsesFarFewerInstructions(t *testing.T) {
	s := GEMMSize{M: 16, N: 32, K: 32}
	wv, _, err := DGEMMVSU(s)
	if err != nil {
		t.Fatal(err)
	}
	wm, _, err := DGEMMMMA(s)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := trace.Capture(wv.Prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := trace.Capture(wm.Prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// A single ger replaces several vector FMAs: the MMA coding must use
	// far fewer dynamic instructions for the same math.
	if len(rm)*2 >= len(rv) {
		t.Errorf("MMA instructions %d vs VSU %d, want >=2x reduction", len(rm), len(rv))
	}
}

func TestInt8GEMMBuildsAndRuns(t *testing.T) {
	w, err := GEMMInt8MMA(GEMMSize{M: 8, N: 16, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Capture(w.Prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	st := summarize(w.Prog, recs)
	if st.intMACs == 0 {
		t.Error("int8 kernel produced no MAC ops")
	}
	if st.flops != 0 {
		t.Error("int8 kernel counted flops")
	}
}

func TestDaxpyComputesCorrectly(t *testing.T) {
	n := 16
	w := Daxpy(n, 1)
	vm := runToHalt(t, w.Prog)
	// Recompute expected from the same deterministic image.
	rng := newLCG(4)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.f64(), rng.f64()
	}
	got := readF64(t, vm, addrY, n)
	for i := range x {
		want := y[i] + 2.5*x[i]
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestGEMMSizeValidation(t *testing.T) {
	if _, _, err := DGEMMVSU(GEMMSize{M: 7, N: 16, K: 4}); err == nil {
		t.Error("invalid M accepted")
	}
	if _, _, err := DGEMMMMA(GEMMSize{M: 8, N: 12, K: 4}); err == nil {
		t.Error("invalid N accepted")
	}
	if _, err := GEMMInt8MMA(GEMMSize{M: 8, N: 16, K: 7}); err == nil {
		t.Error("invalid K accepted for int8")
	}
}
