package isa

import (
	"bytes"
	"testing"
	"testing/quick"
)

func roundTripProgram(t *testing.T, p *Program) *Program {
	t.Helper()
	img, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("%s: encode: %v", p.Name, err)
	}
	q, err := DecodeProgram(img)
	if err != nil {
		t.Fatalf("%s: decode: %v", p.Name, err)
	}
	return q
}

func programsEqual(t *testing.T, p, q *Program) {
	t.Helper()
	if p.Name != q.Name || p.Entry != q.Entry || p.CodeBase != q.CodeBase {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", p.Name, p.Entry, q.Name, q.Entry)
	}
	if len(p.Code) != len(q.Code) {
		t.Fatalf("code length %d vs %d", len(p.Code), len(q.Code))
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Fatalf("@%d: %+v != %+v", i, p.Code[i], q.Code[i])
		}
	}
	if len(p.InitGPR) != len(q.InitGPR) {
		t.Fatalf("gpr count %d vs %d", len(p.InitGPR), len(q.InitGPR))
	}
	for r, v := range p.InitGPR {
		if q.InitGPR[r] != v {
			t.Fatalf("gpr %d: %d vs %d", r, v, q.InitGPR[r])
		}
	}
	if len(p.InitMem) != len(q.InitMem) {
		t.Fatalf("mem segments %d vs %d", len(p.InitMem), len(q.InitMem))
	}
	for a, d := range p.InitMem {
		if !bytes.Equal(q.InitMem[a], d) {
			t.Fatalf("mem segment %#x differs", a)
		}
	}
}

func TestEncodeRoundTripSimple(t *testing.T) {
	p := NewBuilder("rt").
		Li(GPR(1), 0).
		Li(GPR(2), 100).
		Li(GPR(3), 6364136223846793005). // 64-bit constant -> literal pool
		Li(GPR(4), -77).
		Label("top").
		Add(GPR(5), GPR(1), GPR(2)).
		Ld(GPR(6), GPR(5), 24).
		St(GPR(6), GPR(5), 8).
		Lxvp(VSR(10), GPR(5), 0).
		Xvf64gerpp(ACC(2), VSR(10), VSR(3)).
		Addi(GPR(1), GPR(1), 1).
		Bc(CondLT, GPR(1), GPR(2), "top").
		Halt().
		MustBuild()
	q := roundTripProgram(t, p)
	programsEqual(t, p, q)
}

func TestEncodeRoundTripExecutesIdentically(t *testing.T) {
	p := NewBuilder("exec").
		SetGPR(9, 7).
		Li(GPR(1), 0).
		Li(GPR(2), 50).
		Li(GPR(3), 0x123456789ABC). // prefixed/pooled immediate
		Label("top").
		Add(GPR(4), GPR(4), GPR(3)).
		Shr(GPR(5), GPR(4), 9).
		Xor(GPR(6), GPR(6), GPR(5)).
		Addi(GPR(1), GPR(1), 1).
		Bc(CondLT, GPR(1), GPR(2), "top").
		Halt().
		MustBuild()
	q := roundTripProgram(t, p)
	vmP, vmQ := NewVM(p), NewVM(q)
	if _, err := vmP.Run(1<<20, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := vmQ.Run(1<<20, nil); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < NumGPR; r++ {
		if vmP.GPR(r) != vmQ.GPR(r) {
			t.Fatalf("r%d: %d vs %d after round trip", r, vmP.GPR(r), vmQ.GPR(r))
		}
	}
}

func TestEncodeImmediateForms(t *testing.T) {
	cases := []int64{0, 1, -1, 511, -512, 512, -513, 1 << 20, -(1 << 20),
		1<<34 - 1, -(1 << 34), 1 << 40, -(1 << 60)}
	for _, imm := range cases {
		p := &Program{
			Name: "imm",
			Code: []Inst{{Op: OpLi, Dst: GPR(1), Imm: imm}, {Op: OpHalt}},
		}
		q := roundTripProgram(t, p)
		if q.Code[0].Imm != imm {
			t.Errorf("imm %d decoded as %d", imm, q.Code[0].Imm)
		}
	}
}

func TestEncodeWordCounts(t *testing.T) {
	pool := func(uint64) (int, error) { return 0, nil }
	short := Inst{Op: OpAddi, Dst: GPR(1), A: GPR(1), Imm: 5}
	ws, err := EncodeInst(&short, 0, pool)
	if err != nil || len(ws) != 1 {
		t.Errorf("short imm used %d words (%v)", len(ws), err)
	}
	long := Inst{Op: OpAddi, Dst: GPR(1), A: GPR(1), Imm: 1 << 20}
	ws, err = EncodeInst(&long, 0, pool)
	if err != nil || len(ws) != 2 {
		t.Errorf("prefixed imm used %d words (%v)", len(ws), err)
	}
	x := Inst{Op: OpAdd, Dst: GPR(1), A: GPR(2), B: GPR(3)}
	ws, err = EncodeInst(&x, 0, pool)
	if err != nil || len(ws) != 1 {
		t.Errorf("X-form used %d words (%v)", len(ws), err)
	}
}

func TestEncodeBranchRange(t *testing.T) {
	in := Inst{Op: OpB, Target: 5000}
	if _, err := EncodeInst(&in, 0, nil); err == nil {
		t.Error("out-of-range branch encoded")
	}
	in.Target = 100
	ws, err := EncodeInst(&in, 0, nil)
	if err != nil || len(ws) != 1 {
		t.Fatalf("branch encode: %v", err)
	}
	dec, n, err := DecodeInst(ws, 0, nil)
	if err != nil || n != 1 {
		t.Fatal(err)
	}
	if dec.Target != 100 {
		t.Errorf("target %d, want 100", dec.Target)
	}
	// Backward branch.
	in.Target = 3
	ws, _ = EncodeInst(&in, 50, nil)
	dec, _, _ = DecodeInst(ws, 50, nil)
	if dec.Target != 3 {
		t.Errorf("backward target %d, want 3", dec.Target)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram([]byte{1, 2, 3}); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodeProgram(nil); err == nil {
		t.Error("empty decoded")
	}
	// 0xFFFFFFFF code words declared in a 16-byte image must fail, not
	// allocate.
	if _, err := DecodeProgram([]byte("A01P\x01\x00\x00\x00\x01\x00\x00\x00\xff\xff\xff\xff")); err == nil {
		t.Error("image declaring 2^32-1 code words decoded")
	}
	if _, _, err := DecodeInst([]uint32{uint32(prefixOpcode) << 26}, 0, nil); err == nil {
		t.Error("dangling prefix decoded")
	}
}

// TestEncodeRoundTripProperty fuzzes random well-formed instructions through
// the encoder and decoder.
func TestEncodeRoundTripProperty(t *testing.T) {
	xOps := []Opcode{OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor,
		OpXvadddp, OpXvmuldp, OpXvmaddadp, OpXvmaddasp, OpXxlxor, OpXxperm,
		OpXxsetaccz, OpXxmtacc, OpXxmfacc, OpXvf64gerpp, OpXvf32gerpp,
		OpXvi8ger4pp, OpNop, OpHalt, OpMMAWake}
	dOps := []Opcode{OpLi, OpAddi, OpLd, OpSt, OpLw, OpStw, OpLxv, OpStxv,
		OpLxvdsx, OpLxvwsx}
	f := func(sel uint8, dstRaw, aRaw, bRaw uint8, imm int64) bool {
		var in Inst
		var pool []uint64
		poolRef := func(v uint64) (int, error) {
			pool = append(pool, v)
			return len(pool) - 1, nil
		}
		if sel%2 == 0 {
			op := xOps[int(sel/2)%len(xOps)]
			in = Inst{Op: op}
			switch op {
			case OpNop, OpHalt, OpMMAWake:
			case OpXxsetaccz:
				in.Dst = ACC(int(dstRaw) % NumACC)
			case OpXxmtacc:
				in.Dst = ACC(int(dstRaw) % NumACC)
				in.A = VSR(int(aRaw) % NumVSR)
			case OpXxmfacc:
				in.Dst = VSR(int(dstRaw) % NumVSR)
				in.A = ACC(int(aRaw) % NumACC)
			case OpXvf64gerpp, OpXvf32gerpp, OpXvi8ger4pp:
				in.Dst = ACC(int(dstRaw) % NumACC)
				in.A = VSR(int(aRaw) % NumVSR)
				in.B = VSR(int(bRaw) % NumVSR)
			case OpXvadddp, OpXvmuldp, OpXvmaddadp, OpXvmaddasp, OpXxlxor, OpXxperm:
				in.Dst = VSR(int(dstRaw) % NumVSR)
				in.A = VSR(int(aRaw) % NumVSR)
				in.B = VSR(int(bRaw) % NumVSR)
			default:
				in.Dst = GPR(int(dstRaw) % NumGPR)
				in.A = GPR(int(aRaw) % NumGPR)
				in.B = GPR(int(bRaw) % NumGPR)
			}
		} else {
			op := dOps[int(sel/2)%len(dOps)]
			in = Inst{Op: op, Imm: imm, A: GPR(int(aRaw) % NumGPR)}
			if ClassOf(op).IsStore() {
				in.B = GPR(int(bRaw) % NumGPR)
			} else if ClassOf(op).IsMem() && ClassOf(op) != ClassLoad {
				in.Dst = VSR(int(dstRaw) % NumVSR)
			} else {
				in.Dst = GPR(int(dstRaw) % NumGPR)
			}
			in.Prefixed = op == OpLxvp || op == OpStxvp
		}
		ws, err := EncodeInst(&in, 0, poolRef)
		if err != nil {
			return false
		}
		dec, n, err := DecodeInst(ws, 0, pool)
		if err != nil || n != len(ws) {
			return false
		}
		return dec == in
	}
	if err := quickCheck(f); err != nil {
		t.Error(err)
	}
}

// quickCheck wraps testing/quick with a higher iteration count.
func quickCheck(f interface{}) error {
	return quick.Check(f, &quick.Config{MaxCount: 400})
}

// FuzzDecodeProgram feeds arbitrary bytes to the object-image decoder that
// p10trace -mode emit reads back. It must never panic, and an image it
// accepts must re-encode to an image that decodes to the same program. The
// committed corpus under testdata/fuzz/FuzzDecodeProgram holds an encoded
// program, a truncation, and header counts far beyond the image: 0xFFFFFFFF
// code words in 16 bytes and 0xFFFFFFFF pool entries in 20.
func FuzzDecodeProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		programsEqual(t, p, roundTripProgram(t, p))
	})
}
