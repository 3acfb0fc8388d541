package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func run(t *testing.T, p *Program, budget uint64) *VM {
	t.Helper()
	vm := NewVM(p)
	if _, err := vm.Run(budget, nil); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestVMIntegerLoop(t *testing.T) {
	p := NewBuilder("sum").
		Li(GPR(1), 0).   // sum
		Li(GPR(2), 0).   // i
		Li(GPR(3), 100). // n
		Label("top").
		Add(GPR(1), GPR(1), GPR(2)).
		Addi(GPR(2), GPR(2), 1).
		Bc(CondLT, GPR(2), GPR(3), "top").
		Halt().
		MustBuild()
	vm := run(t, p, 1_000_000)
	if !vm.Halted() {
		t.Fatal("did not halt")
	}
	if got := vm.GPR(1); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
}

func TestVMIntegerOps(t *testing.T) {
	p := NewBuilder("ops").
		Li(GPR(1), 12).
		Li(GPR(2), 5).
		Sub(GPR(3), GPR(1), GPR(2)).
		Mul(GPR(4), GPR(1), GPR(2)).
		Div(GPR(5), GPR(1), GPR(2)).
		And(GPR(6), GPR(1), GPR(2)).
		Or(GPR(7), GPR(1), GPR(2)).
		Xor(GPR(8), GPR(1), GPR(2)).
		Shl(GPR(9), GPR(1), 2).
		Shr(GPR(10), GPR(1), 2).
		Halt().
		MustBuild()
	vm := run(t, p, 100)
	want := map[int]uint64{3: 7, 4: 60, 5: 2, 6: 4, 7: 13, 8: 9, 9: 48, 10: 3}
	for r, w := range want {
		if got := vm.GPR(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestVMDivByZero(t *testing.T) {
	p := NewBuilder("div0").
		Li(GPR(1), 7).
		Li(GPR(2), 0).
		Div(GPR(3), GPR(1), GPR(2)).
		Halt().
		MustBuild()
	vm := run(t, p, 10)
	if got := vm.GPR(3); got != 0 {
		t.Errorf("div by zero = %d, want 0", got)
	}
}

func TestVMMemoryRoundTrip(t *testing.T) {
	p := NewBuilder("mem").
		Li(GPR(1), 0x2000).
		Li(GPR(2), 0xDEADBEEFCAFE).
		St(GPR(2), GPR(1), 8).
		Ld(GPR(3), GPR(1), 8).
		Stw(GPR(2), GPR(1), 64).
		Lw(GPR(4), GPR(1), 64).
		Halt().
		MustBuild()
	vm := run(t, p, 100)
	if got := vm.GPR(3); got != 0xDEADBEEFCAFE {
		t.Errorf("ld = %#x", got)
	}
	if got := vm.GPR(4); got != 0xBEEFCAFE {
		t.Errorf("lw = %#x, want zero-extended low word", got)
	}
}

func TestVMEffectiveAddresses(t *testing.T) {
	p := NewBuilder("ea").
		Li(GPR(1), 0x4000).
		Ld(GPR(2), GPR(1), 24).
		Halt().
		MustBuild()
	vm := NewVM(p)
	var eas []uint64
	if _, err := vm.Run(100, func(blk []Record) {
		for _, r := range blk {
			if ClassOf(p.Code[r.Idx()].Op).IsMem() {
				eas = append(eas, r.EA())
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(eas) != 1 || eas[0] != 0x4018 {
		t.Errorf("EAs = %#v, want [0x4018]", eas)
	}
}

func TestVMBranchOutcomesInTrace(t *testing.T) {
	p := NewBuilder("br").
		Li(GPR(1), 0).
		Li(GPR(2), 3).
		Label("top").
		Addi(GPR(1), GPR(1), 1).
		Bc(CondLT, GPR(1), GPR(2), "top").
		Halt().
		MustBuild()
	vm := NewVM(p)
	var taken, notTaken int
	if _, err := vm.Run(1000, func(blk []Record) {
		for _, r := range blk {
			if p.Code[r.Idx()].Op == OpBc {
				if r.Taken() {
					taken++
				} else {
					notTaken++
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if taken != 2 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 2/1", taken, notTaken)
	}
}

func TestVMIndirectBranch(t *testing.T) {
	prog := NewBuilder("indirect").
		Li(GPR(1), 3).
		Br(GPR(1)).
		Li(GPR(2), 99).
		Li(GPR(3), 7).
		Halt().
		MustBuild()
	vm := run(t, prog, 100)
	if vm.GPR(2) != 0 || vm.GPR(3) != 7 {
		t.Errorf("r2=%d r3=%d, want 0/7", vm.GPR(2), vm.GPR(3))
	}
}

func TestVMIndirectBranchOutOfRange(t *testing.T) {
	p := NewBuilder("badbr").
		Li(GPR(1), 999).
		Br(GPR(1)).
		Halt().
		MustBuild()
	vm := NewVM(p)
	if _, err := vm.Run(10, nil); err == nil {
		t.Error("out-of-range indirect branch did not error")
	}
}

func TestVMVSXDoubleArithmetic(t *testing.T) {
	// Store two doubles, load as vector, FMA with itself, read back.
	mem := map[uint64][]byte{}
	p := &Program{
		Name: "vsx",
		Code: []Inst{
			{Op: OpLi, Dst: GPR(1), Imm: 0x3000},
			{Op: OpLxv, Dst: VSR(0), A: GPR(1)},
			{Op: OpLxv, Dst: VSR(1), A: GPR(1), Imm: 16},
			{Op: OpXxlxor, Dst: VSR(2), A: VSR(2), B: VSR(2)},
			{Op: OpXvmaddadp, Dst: VSR(2), A: VSR(0), B: VSR(1)},
			{Op: OpXvadddp, Dst: VSR(3), A: VSR(0), B: VSR(1)},
			{Op: OpXvmuldp, Dst: VSR(4), A: VSR(0), B: VSR(1)},
			{Op: OpHalt},
		},
		InitMem: mem,
	}
	buf := make([]byte, 32)
	putF64 := func(off int, f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(bits >> (8 * i))
		}
	}
	putF64(0, 2.0)
	putF64(8, 3.0)
	putF64(16, 10.0)
	putF64(24, 100.0)
	mem[0x3000] = buf
	vm := run(t, p, 100)
	if got := vm.VSRF64(2); got != [2]float64{20, 300} {
		t.Errorf("fma lanes = %v, want [20 300]", got)
	}
	if got := vm.VSRF64(3); got != [2]float64{12, 103} {
		t.Errorf("add lanes = %v, want [12 103]", got)
	}
	if got := vm.VSRF64(4); got != [2]float64{20, 300} {
		t.Errorf("mul lanes = %v, want [20 300]", got)
	}
}

func TestVMLxvpLoadsPair(t *testing.T) {
	mem := map[uint64][]byte{}
	buf := make([]byte, 32)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	mem[0x5000] = buf
	p := &Program{
		Name: "lxvp",
		Code: []Inst{
			{Op: OpLi, Dst: GPR(1), Imm: 0x5000},
			{Op: OpLxvp, Dst: VSR(10), A: GPR(1), Prefixed: true},
			{Op: OpStxvp, B: VSR(10), A: GPR(1), Imm: 64, Prefixed: true},
			{Op: OpLxv, Dst: VSR(20), A: GPR(1), Imm: 64},
			{Op: OpLxv, Dst: VSR(21), A: GPR(1), Imm: 80},
			{Op: OpHalt},
		},
		InitMem: mem,
	}
	vm := run(t, p, 100)
	if vm.VSRs[20] != vm.VSRs[10] || vm.VSRs[21] != vm.VSRs[11] {
		t.Error("lxvp/stxvp pair round trip mismatch")
	}
	if vm.VSRs[10][0] == 0 {
		t.Error("lxvp loaded zeros")
	}
}

// TestVMMMAOuterProductDP checks xvf64gerpp against a directly computed 4x2
// outer-product accumulation.
func TestVMMMAOuterProductDP(t *testing.T) {
	vm := NewVM(&Program{Name: "mma", Code: []Inst{{Op: OpHalt}}})
	// X = [1, 2, 3, 4] in VSR0..1; Y = [10, 20] in VSR2.
	vm.VSRs[0] = [2]uint64{math.Float64bits(1), math.Float64bits(2)}
	vm.VSRs[1] = [2]uint64{math.Float64bits(3), math.Float64bits(4)}
	vm.VSRs[2] = [2]uint64{math.Float64bits(10), math.Float64bits(20)}
	vm.Prog.Code = []Inst{
		{Op: OpXxsetaccz, Dst: ACC(0)},
		{Op: OpXvf64gerpp, Dst: ACC(0), A: VSR(0), B: VSR(2)},
		{Op: OpXvf64gerpp, Dst: ACC(0), A: VSR(0), B: VSR(2)}, // accumulate twice
		{Op: OpHalt},
	}
	vm.Prog.pcs = nil
	if _, err := vm.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	got := vm.ACCF64(0)
	x := [4]float64{1, 2, 3, 4}
	y := [2]float64{10, 20}
	for r := 0; r < 4; r++ {
		for c := 0; c < 2; c++ {
			want := 2 * x[r] * y[c]
			if got[r][c] != want {
				t.Errorf("acc[%d][%d] = %v, want %v", r, c, got[r][c], want)
			}
		}
	}
}

func TestVMMMAOuterProductSP(t *testing.T) {
	vm := NewVM(&Program{Name: "mma32", Code: []Inst{{Op: OpHalt}}})
	pack := func(a, b float32) uint64 {
		return uint64(math.Float32bits(a)) | uint64(math.Float32bits(b))<<32
	}
	vm.VSRs[0] = [2]uint64{pack(1, 2), pack(3, 4)}
	vm.VSRs[1] = [2]uint64{pack(10, 20), pack(30, 40)}
	vm.Prog.Code = []Inst{
		{Op: OpXxsetaccz, Dst: ACC(1)},
		{Op: OpXvf32gerpp, Dst: ACC(1), A: VSR(0), B: VSR(1)},
		{Op: OpHalt},
	}
	vm.Prog.pcs = nil
	if _, err := vm.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	got := vm.ACCF32(1)
	x := [4]float32{1, 2, 3, 4}
	y := [4]float32{10, 20, 30, 40}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got[r][c] != x[r]*y[c] {
				t.Errorf("acc[%d][%d] = %v, want %v", r, c, got[r][c], x[r]*y[c])
			}
		}
	}
}

func TestVMAccMoveRoundTrip(t *testing.T) {
	vm := NewVM(&Program{Name: "accmv", Code: []Inst{{Op: OpHalt}}})
	for i := 0; i < 4; i++ {
		vm.VSRs[8+i] = [2]uint64{uint64(i*2 + 1), uint64(i*2 + 2)}
	}
	vm.Prog.Code = []Inst{
		{Op: OpXxmtacc, Dst: ACC(3), A: VSR(8)},
		{Op: OpXxmfacc, Dst: VSR(30), A: ACC(3)},
		{Op: OpHalt},
	}
	vm.Prog.pcs = nil
	if _, err := vm.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if vm.VSRs[30+i] != vm.VSRs[8+i] {
			t.Errorf("vsr%d = %v, want %v", 30+i, vm.VSRs[30+i], vm.VSRs[8+i])
		}
	}
}

func TestVMBudgetStopsInfiniteLoop(t *testing.T) {
	p := NewBuilder("inf").Label("x").B("x").MustBuild()
	vm := NewVM(p)
	n, err := vm.Run(5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Errorf("ran %d, want budget 5000", n)
	}
	if vm.Halted() {
		t.Error("infinite loop halted")
	}
}

// Property: memory Read/Write round-trips arbitrary values at arbitrary widths.
func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		addr %= 1 << 40 // keep page keys bounded
		m.Write(addr, v, n)
		got := m.Read(addr, n)
		mask := ^uint64(0)
		if n < 8 {
			mask = (1 << (8 * n)) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

func TestVMTracePCsMonotoneWithinBasicBlock(t *testing.T) {
	p := NewBuilder("pcs").
		Li(GPR(1), 1).
		Addi(GPR(1), GPR(1), 1).
		Addi(GPR(1), GPR(1), 1).
		Halt().
		MustBuild()
	vm := NewVM(p)
	var last uint64
	if _, err := vm.Run(100, func(blk []Record) {
		for _, r := range blk {
			d := r.DynInst(p.PCs())
			if last != 0 && d.PC != last {
				t.Errorf("PC %#x does not follow previous NextPC %#x", d.PC, last)
			}
			last = d.NextPC
		}
	}); err != nil {
		t.Fatal(err)
	}
}
