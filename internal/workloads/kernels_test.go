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

// TestGEMMProgramsPinned holds every GEMM coding to the program it builds at
// sizes outside the catalog (TestCatalogTracePinned in internal/isa covers
// each coding at its catalog size only): the content fingerprint every cache
// key derives from, and the budget and warmup kernelWorkload measures. The
// AI models' layers share the SGEMM codings' emitter, and their operands are
// all zero, so only the fingerprint sees which registers a layer uses.
func TestGEMMProgramsPinned(t *testing.T) {
	drop := func(w *Workload, _ any, err error) (*Workload, error) { return w, err }
	build := map[string]func(GEMMSize) (*Workload, error){
		"dgemm-vsu":     func(s GEMMSize) (*Workload, error) { return drop(DGEMMVSU(s)) },
		"dgemm-mma":     func(s GEMMSize) (*Workload, error) { return drop(DGEMMMMA(s)) },
		"sgemm-vsu":     func(s GEMMSize) (*Workload, error) { return drop(SGEMMVSU(s)) },
		"sgemm-mma":     func(s GEMMSize) (*Workload, error) { return drop(SGEMMMMA(s)) },
		"gemm-int8-mma": GEMMInt8MMA,
		"resnet50-vsu":  func(GEMMSize) (*Workload, error) { return ResNet50(false) },
		"resnet50-mma":  func(GEMMSize) (*Workload, error) { return ResNet50(true) },
		"bertlarge-vsu": func(GEMMSize) (*Workload, error) { return BERTLarge(false) },
		"bertlarge-mma": func(GEMMSize) (*Workload, error) { return BERTLarge(true) },
	}
	small, mid, large := GEMMSize{M: 8, N: 16, K: 8}, GEMMSize{M: 16, N: 32, K: 12}, GEMMSize{M: 24, N: 48, K: 20}
	for _, tc := range []struct {
		name           string
		s              GEMMSize
		fp             uint64
		budget, warmup uint64
	}{
		{"dgemm-vsu", small, 0xe20bd159f96cf62f, 1878, 939},
		{"dgemm-vsu", mid, 0x4a8f9bb8dbd25a82, 10518, 5259},
		{"dgemm-vsu", large, 0x57f1ab8d3fafcf4c, 37454, 18727},
		{"dgemm-mma", small, 0x1bc585a25b0c555c, 951, 475},
		{"dgemm-mma", mid, 0x9739c9eecbfc830d, 5079, 2539},
		{"dgemm-mma", large, 0x960f99685a994d0f, 17439, 8719},
		{"sgemm-vsu", small, 0x6db961e1daea18ee, 959, 479},
		{"sgemm-vsu", mid, 0xae0418e2a0ab1344, 5303, 2651},
		{"sgemm-vsu", large, 0x7752b5508698ee20, 18811, 9405},
		{"sgemm-mma", small, 0xf38c1c4bf9d91378, 448, 224},
		{"sgemm-mma", mid, 0xe07c142a35e7af1e, 2296, 1148},
		{"sgemm-mma", large, 0x2a9695d1cff6dd4a, 7724, 3862},
		{"gemm-int8-mma", small, 0x9d4ba6969ff6ed3b, 227, 113},
		{"gemm-int8-mma", mid, 0x3e47d5f2df387023, 995, 497},
		{"gemm-int8-mma", large, 0xd3b6d6716d69b15c, 2859, 1429},
		{"resnet50-vsu", GEMMSize{}, 0xd370d78601e8e1bd, 2_000_000, 0},
		{"resnet50-mma", GEMMSize{}, 0x4efbc794aa43e8c6, 2_000_000, 0},
		{"bertlarge-vsu", GEMMSize{}, 0x5e1ce0a52096dd54, 2_000_000, 0},
		{"bertlarge-mma", GEMMSize{}, 0x0c3a6ba21b0b2203, 2_000_000, 0},
	} {
		w, err := build[tc.name](tc.s)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.name, tc.s, err)
		}
		if w.Name != tc.name {
			t.Errorf("%s %+v: named %q", tc.name, tc.s, w.Name)
		}
		if fp := w.Prog.Fingerprint(); fp != tc.fp || w.Budget != tc.budget || w.Warmup != tc.warmup {
			t.Errorf("%s %+v: fingerprint %#016x, budget %d, warmup %d; pinned %#016x, %d, %d",
				tc.name, tc.s, fp, w.Budget, w.Warmup, tc.fp, tc.budget, tc.warmup)
		}
	}
}
