package isa

import (
	"testing"
	"testing/quick"
)

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		c                                  Class
		branch, mem, load, store, vsx, mma bool
	}{
		{ClassIntALU, false, false, false, false, false, false},
		{ClassBranch, true, false, false, false, false, false},
		{ClassCondBranch, true, false, false, false, false, false},
		{ClassIndirBranch, true, false, false, false, false, false},
		{ClassLoad, false, true, true, false, false, false},
		{ClassStore, false, true, false, true, false, false},
		{ClassVSXLoad, false, true, true, false, false, false},
		{ClassVSXPairStore, false, true, false, true, false, false},
		{ClassVSXFMA, false, false, false, false, true, false},
		{ClassMMA, false, false, false, false, false, true},
		{ClassMMAMove, false, false, false, false, false, true},
	}
	for _, tc := range cases {
		if got := tc.c.IsBranch(); got != tc.branch {
			t.Errorf("%v.IsBranch() = %v, want %v", tc.c, got, tc.branch)
		}
		if got := tc.c.IsMem(); got != tc.mem {
			t.Errorf("%v.IsMem() = %v, want %v", tc.c, got, tc.mem)
		}
		if got := tc.c.IsLoad(); got != tc.load {
			t.Errorf("%v.IsLoad() = %v, want %v", tc.c, got, tc.load)
		}
		if got := tc.c.IsStore(); got != tc.store {
			t.Errorf("%v.IsStore() = %v, want %v", tc.c, got, tc.store)
		}
		if got := tc.c.IsVSX(); got != tc.vsx {
			t.Errorf("%v.IsVSX() = %v, want %v", tc.c, got, tc.vsx)
		}
		if got := tc.c.IsMMA(); got != tc.mma {
			t.Errorf("%v.IsMMA() = %v, want %v", tc.c, got, tc.mma)
		}
	}
}

func TestOpcodeMetadataComplete(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		// OpNop's metadata is legitimately all zero; every other defined
		// opcode has a non-nop class, so zero metadata means it was left out
		// of opTable.
		if op != OpNop && opTable[op] == (opInfo{}) {
			t.Errorf("opcode %v has no opTable metadata", op)
		}
		if int(op) >= len(opNames) || opNames[op] == "" {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if len(opNames) != NumOpcodes {
		t.Errorf("opNames has %d entries, want %d", len(opNames), NumOpcodes)
	}
	if len(classNames) != NumClasses {
		t.Errorf("classNames has %d entries, want %d", len(classNames), NumClasses)
	}
}

func TestMMAFlopCounts(t *testing.T) {
	if got := FlopsOf(OpXvf64gerpp); got != 16 {
		t.Errorf("xvf64gerpp flops = %d, want 16 (4x2 grid of FMAs)", got)
	}
	if got := FlopsOf(OpXvf32gerpp); got != 32 {
		t.Errorf("xvf32gerpp flops = %d, want 32 (4x4 grid of FMAs)", got)
	}
	if got := FlopsOf(OpXvmaddadp); got != 4 {
		t.Errorf("xvmaddadp flops = %d, want 4 (2 DP FMA lanes)", got)
	}
	if got := IntOpsOf(OpXvi8ger4pp); got != 128 {
		t.Errorf("xvi8ger4pp intops = %d, want 128", got)
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{CondEQ, 3, 3, true}, {CondEQ, 3, 4, false},
		{CondNE, 3, 4, true}, {CondNE, 3, 3, false},
		{CondLT, -1, 0, true}, {CondLT, 0, 0, false},
		{CondGE, 0, 0, true}, {CondGE, -5, -4, false},
		{CondGT, 1, 0, true}, {CondGT, 0, 0, false},
		{CondLE, 0, 0, true}, {CondLE, 1, 0, false},
	}
	for _, tc := range cases {
		if got := tc.c.Eval(tc.a, tc.b); got != tc.want {
			t.Errorf("%v.Eval(%d, %d) = %v, want %v", tc.c, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCondEvalTotalOrderProperty(t *testing.T) {
	// For any pair (a, b), exactly one of LT/EQ/GT holds, and the derived
	// conditions are consistent complements.
	f := func(a, b int64) bool {
		lt, eq, gt := CondLT.Eval(a, b), CondEQ.Eval(a, b), CondGT.Eval(a, b)
		one := (lt && !eq && !gt) || (!lt && eq && !gt) || (!lt && !eq && gt)
		ge := CondGE.Eval(a, b) == !lt
		le := CondLE.Eval(a, b) == !gt
		ne := CondNE.Eval(a, b) == !eq
		return one && ge && le && ne
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramPCAccountsForPrefixes(t *testing.T) {
	p := NewBuilder("pc").
		Addi(GPR(1), GPR(1), 1). // 4 bytes
		Lxvp(VSR(0), GPR(1), 0). // 8 bytes (prefixed)
		Addi(GPR(2), GPR(2), 1).
		Halt().
		MustBuild()
	base := p.PC(0)
	if base != DefaultCodeBase {
		t.Fatalf("PC(0) = %#x, want %#x", base, uint64(DefaultCodeBase))
	}
	if got := p.PC(1) - base; got != 4 {
		t.Errorf("PC(1) offset = %d, want 4", got)
	}
	if got := p.PC(2) - base; got != 12 {
		t.Errorf("PC(2) offset = %d, want 12 (after 8-byte prefixed lxvp)", got)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	bad := &Program{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Error("empty program validated")
	}
	bad = &Program{Name: "target", Code: []Inst{{Op: OpB, Target: 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range branch target validated")
	}
	bad = &Program{Name: "reg", Code: []Inst{{Op: OpAdd, Dst: Reg{FileGPR, 40}}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range register validated")
	}
	bad = &Program{Name: "entry", Code: []Inst{{Op: OpNop}}, Entry: 2}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range entry validated")
	}
	bad = &Program{Name: "init", Code: []Inst{{Op: OpNop}}, InitGPR: map[int]uint64{NumGPR: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range initial register validated")
	}
	bad = &Program{Name: "opcode", Code: []Inst{{Op: numOpcodes}}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined opcode validated")
	}
	// The VM indexes an add's operands as GPRs whatever file they name: a
	// VSR or an absent operand there would read past the GPR file.
	bad = &Program{Name: "file", Code: []Inst{{Op: OpAdd, Dst: GPR(1), A: VSR(40), B: GPR(2)}}}
	if err := bad.Validate(); err == nil {
		t.Error("VSR operand to an integer add validated")
	}
	bad = &Program{Name: "absent", Code: []Inst{{Op: OpLd, Dst: GPR(1), A: Reg{FileNone, 99}}}}
	if err := bad.Validate(); err == nil {
		t.Error("absent base register on a load validated")
	}
}

func TestBuilderLabelResolution(t *testing.T) {
	p, err := NewBuilder("loop").
		Li(GPR(1), 0).
		Li(GPR(2), 10).
		Label("top").
		Addi(GPR(1), GPR(1), 1).
		Bc(CondLT, GPR(1), GPR(2), "top").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[3].Target != 2 {
		t.Errorf("bc target = %d, want 2", p.Code[3].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder("bad").B("nowhere").Halt().Build()
	if err == nil {
		t.Error("undefined label did not error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	_, err := NewBuilder("dup").Label("x").Nop().Label("x").Halt().Build()
	if err == nil {
		t.Error("duplicate label did not error")
	}
}

func TestRegValidity(t *testing.T) {
	if !GPR(31).Valid() || GPR(32).Valid() {
		t.Error("GPR bounds wrong")
	}
	if !VSR(63).Valid() || VSR(64).Valid() {
		t.Error("VSR bounds wrong")
	}
	if !ACC(7).Valid() || ACC(8).Valid() {
		t.Error("ACC bounds wrong")
	}
	if NoReg.Valid() {
		t.Error("NoReg should be invalid")
	}
}

func TestInstStringForms(t *testing.T) {
	cases := []Inst{
		{Op: OpAdd, Dst: GPR(1), A: GPR(2), B: GPR(3)},
		{Op: OpB, Target: 7},
		{Op: OpBc, Cond: CondLT, A: GPR(1), B: GPR(2), Target: 3},
		{Op: OpBr, A: GPR(4)},
		{Op: OpLd, Dst: GPR(5), A: GPR(6), Imm: 16},
		{Op: OpSt, B: GPR(5), A: GPR(6), Imm: 24},
		{Op: OpXvf64gerpp, Dst: ACC(1), A: VSR(0), B: VSR(2)},
	}
	for _, in := range cases {
		s := in.String()
		if s == "" || s == "op(?)" {
			t.Errorf("%v: empty string form", in.Op)
		}
	}
	if NoReg.String() != "-" {
		t.Errorf("NoReg prints %q", NoReg.String())
	}
	if (Reg{File: 3, Idx: 1}).String() == "" {
		t.Error("unknown file prints empty")
	}
}

func TestClassStringBounds(t *testing.T) {
	if Class(200).String() == "" {
		t.Error("out-of-range class prints empty")
	}
	if Opcode(200).String() == "" {
		t.Error("out-of-range opcode prints empty")
	}
	if Cond(200).String() == "" {
		t.Error("out-of-range cond prints empty")
	}
	if Cond(200).Eval(1, 2) {
		t.Error("bad cond evaluates true")
	}
}
