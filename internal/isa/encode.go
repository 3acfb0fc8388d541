package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Binary encoding of the mini-ISA, shaped like Power ISA conventions:
// fixed 32-bit instruction words in three formats, with an 8-byte prefixed
// form (ISA 3.1 style) carrying immediates that do not fit the base word,
// and a TOC-like literal pool for full 64-bit constants.
//
//	X-form  [6 op][8 dst][8 a][8 b][2 xtra]          register-register ops
//	D-form  [6 op][8 dst][8 a][10 imm]               short signed immediates
//	B-form  [6 op][3 cond][5 a][5 b][13 delta]       branches (GPR operands)
//
// A prefix word [111111][pool-flag][25 imm-high] preceding a D-form extends
// the immediate to 35 signed bits; immediates beyond that are spilled to the
// literal pool and referenced by index (the prefix pool flag set). Registers encode as file(2):idx(6).

// Format classifications per opcode.
const prefixOpcode = 0x3F // all-ones primary opcode marks a prefix word

var dFormOps = map[Opcode]bool{
	OpLi: true, OpAddi: true, OpShl: true, OpShr: true,
	OpLd: true, OpSt: true, OpLw: true, OpStw: true,
	OpLxv: true, OpStxv: true, OpLxvp: true, OpStxvp: true,
	OpLxvdsx: true, OpLxvwsx: true,
}

var bFormOps = map[Opcode]bool{OpB: true, OpBc: true, OpCall: true}

const (
	dImmBits    = 10
	dImmMax     = 1<<(dImmBits-1) - 1
	dImmMin     = -(1 << (dImmBits - 1))
	prefImmBits = 25 + dImmBits // 35-bit prefixed immediate (bit 25 is the pool flag)
	bDeltaBits  = 13
	bDeltaMax   = 1<<(bDeltaBits-1) - 1
	bDeltaMin   = -(1 << (bDeltaBits - 1))
)

func encReg(r Reg) uint32 { return uint32(r.File)<<6 | uint32(r.Idx)&0x3F }

// decReg decodes a register field. A field naming no register file is
// NoReg whatever its index bits hold, so an accepted image decodes to the
// instructions it re-encodes to.
func decReg(v uint32) Reg {
	f := RegFile(v >> 6 & 3)
	if f == FileNone {
		return NoReg
	}
	return Reg{File: f, Idx: uint8(v & 0x3F)}
}

// EncodeInst encodes one instruction at code index idx into one or two
// 32-bit words. Large immediates fall back to the literal pool via
// poolRef, which registers a value and returns its index.
func EncodeInst(in *Inst, idx int, poolRef func(uint64) (int, error)) ([]uint32, error) {
	op := uint32(in.Op)
	if op >= prefixOpcode {
		return nil, fmt.Errorf("isa: opcode %v exceeds encodable range", in.Op)
	}
	switch {
	case bFormOps[in.Op]:
		delta := in.Target - idx
		if delta < bDeltaMin || delta > bDeltaMax {
			return nil, fmt.Errorf("isa: branch delta %d out of B-form range", delta)
		}
		w := op<<26 | uint32(in.Cond)<<23 |
			uint32(in.A.Idx&0x1F)<<18 | uint32(in.B.Idx&0x1F)<<13 |
			uint32(delta)&0x1FFF
		return []uint32{w}, nil
	case dFormOps[in.Op]:
		imm := in.Imm
		if imm >= dImmMin && imm <= dImmMax {
			w := op<<26 | encReg(pickDst(in))<<18 | encReg(in.A)<<10 |
				uint32(imm)&0x3FF
			return []uint32{w}, nil
		}
		if fitsSigned(imm, prefImmBits) {
			hi := uint32(imm>>dImmBits) & 0x1FFFFFF
			pw := uint32(prefixOpcode)<<26 | hi
			w := op<<26 | encReg(pickDst(in))<<18 | encReg(in.A)<<10 |
				uint32(imm)&0x3FF
			return []uint32{pw, w}, nil
		}
		// Literal pool: D-form with the pool index as the immediate and
		// the extra marker bit pattern in A.File... instead, use a
		// dedicated prefix with the pool escape bit.
		pi, err := poolRef(uint64(imm))
		if err != nil {
			return nil, err
		}
		if pi > dImmMax {
			return nil, fmt.Errorf("isa: literal pool overflow (%d entries)", pi)
		}
		// Pool escape: prefix with all-ones payload high bit set.
		pw := uint32(prefixOpcode)<<26 | 1<<25
		w := op<<26 | encReg(pickDst(in))<<18 | encReg(in.A)<<10 |
			uint32(pi)&0x3FF
		return []uint32{pw, w}, nil
	default:
		// X-form.
		w := op<<26 | encReg(in.Dst)<<18 | encReg(in.A)<<10 | encReg(in.B)<<2
		if in.Op == OpBr {
			// Indirect branch: register-only, X-form.
			w = op<<26 | encReg(in.A)<<10
		}
		return []uint32{w}, nil
	}
}

// pickDst chooses the register slot D-form stores: the destination for
// loads, the data source for stores.
func pickDst(in *Inst) Reg {
	if in.Dst.File != FileNone {
		return in.Dst
	}
	return in.B
}

func fitsSigned(v int64, bits int) bool {
	min := -(int64(1) << (bits - 1))
	max := int64(1)<<(bits-1) - 1
	return v >= min && v <= max
}

// DecodeInst decodes one instruction starting at words[0], returning the
// instruction, the word count consumed, and an error. idx is the code index
// for branch-delta resolution; pool resolves literal references.
func DecodeInst(words []uint32, idx int, pool []uint64) (Inst, int, error) {
	if len(words) == 0 {
		return Inst{}, 0, errors.New("isa: empty decode")
	}
	var prefHi int64
	poolEscape := false
	n := 0
	w := words[0]
	if w>>26 == prefixOpcode {
		if len(words) < 2 {
			return Inst{}, 0, errors.New("isa: dangling prefix word")
		}
		if w>>25&1 == 1 {
			poolEscape = true
		} else {
			prefHi = int64(int32(w<<7) >> 7) // sign-extend 25 bits
		}
		n = 1
		w = words[1]
	}
	op := Opcode(w >> 26)
	if int(op) >= NumOpcodes {
		return Inst{}, 0, fmt.Errorf("isa: bad opcode %d", op)
	}
	var in Inst
	in.Op = op
	switch {
	case bFormOps[op]:
		in.Cond = Cond(w >> 23 & 7)
		in.A = GPR(int(w >> 18 & 0x1F))
		in.B = GPR(int(w >> 13 & 0x1F))
		delta := int(int32(w<<19) >> 19) // sign-extend 13 bits
		in.Target = idx + delta
		if op == OpB || op == OpCall {
			in.A, in.B = NoReg, NoReg
		}
	case dFormOps[op]:
		dst := decReg(w >> 18 & 0xFF)
		in.A = decReg(w >> 10 & 0xFF)
		low := w & 0x3FF
		switch {
		case poolEscape:
			pi := int(low)
			if pi >= len(pool) {
				return Inst{}, 0, fmt.Errorf("isa: pool index %d out of range", pi)
			}
			in.Imm = int64(pool[pi])
		case n == 1:
			in.Imm = prefHi<<dImmBits | int64(low)
		default:
			in.Imm = int64(int32(w<<22) >> 22) // sign-extend 10 bits
		}
		if ClassOf(op).IsStore() {
			in.B = dst
		} else {
			in.Dst = dst
		}
		in.Prefixed = op == OpLxvp || op == OpStxvp
	default:
		if op == OpBr {
			in.A = decReg(w >> 10 & 0xFF)
		} else {
			in.Dst = decReg(w >> 18 & 0xFF)
			in.A = decReg(w >> 10 & 0xFF)
			in.B = decReg(w >> 2 & 0xFF)
		}
	}
	return in, n + 1, nil
}

// Object-format constants.
const (
	objMagic   = 0x50313041 // "P10A"
	objVersion = 1
)

// EncodeProgram serializes a program — code words, literal pool, entry
// point, initial register and memory state — into a loadable image.
func EncodeProgram(p *Program) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var pool []uint64
	poolIdx := map[uint64]int{}
	poolRef := func(v uint64) (int, error) {
		if i, ok := poolIdx[v]; ok {
			return i, nil
		}
		pool = append(pool, v)
		poolIdx[v] = len(pool) - 1
		return len(pool) - 1, nil
	}
	var words []uint32
	// Instruction index -> word offset mapping is not needed because
	// branch targets are encoded as instruction-index deltas; the decoder
	// tracks instruction indices while scanning words.
	for i := range p.Code {
		ws, err := EncodeInst(&p.Code[i], i, poolRef)
		if err != nil {
			return nil, fmt.Errorf("@%d %v: %w", i, p.Code[i].Op, err)
		}
		words = append(words, ws...)
	}

	var out []byte
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	u64 := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	u32(objMagic)
	u32(objVersion)
	u32(uint32(len(p.Code)))
	u32(uint32(len(words)))
	for _, w := range words {
		u32(w)
	}
	u32(uint32(len(pool)))
	for _, v := range pool {
		u64(v)
	}
	u32(uint32(p.Entry))
	u64(p.CodeBase)
	// Initial GPRs, sorted for determinism.
	var regs []int
	for r := range p.InitGPR {
		regs = append(regs, r)
	}
	sort.Ints(regs)
	u32(uint32(len(regs)))
	for _, r := range regs {
		u32(uint32(r))
		u64(p.InitGPR[r])
	}
	// Initial memory segments, sorted by address.
	var addrs []uint64
	for a := range p.InitMem {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(a, b int) bool { return addrs[a] < addrs[b] })
	u32(uint32(len(addrs)))
	for _, a := range addrs {
		u64(a)
		u32(uint32(len(p.InitMem[a])))
		out = append(out, p.InitMem[a]...)
	}
	u32(uint32(len(p.Name)))
	out = append(out, p.Name...)
	return out, nil
}

// DecodeProgram loads a program image produced by EncodeProgram.
func DecodeProgram(data []byte) (*Program, error) {
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, errors.New("isa: truncated image")
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, errors.New("isa: truncated image")
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	// fits rejects a header count whose entries the rest of the image cannot
	// hold, before anything is allocated for them.
	fits := func(count uint32, size int) error {
		if uint64(count)*uint64(size) > uint64(len(data)-off) {
			return errors.New("isa: truncated image")
		}
		return nil
	}
	magic, err := u32()
	if err != nil {
		return nil, err
	}
	if magic != objMagic {
		return nil, errors.New("isa: bad magic")
	}
	ver, err := u32()
	if err != nil {
		return nil, err
	}
	if ver != objVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", ver)
	}
	nInsts, err := u32()
	if err != nil {
		return nil, err
	}
	nWords, err := u32()
	if err != nil {
		return nil, err
	}
	if err := fits(nWords, 4); err != nil {
		return nil, err
	}
	words := make([]uint32, nWords)
	for i := range words {
		if words[i], err = u32(); err != nil {
			return nil, err
		}
	}
	nPool, err := u32()
	if err != nil {
		return nil, err
	}
	if err := fits(nPool, 8); err != nil {
		return nil, err
	}
	pool := make([]uint64, nPool)
	for i := range pool {
		if pool[i], err = u64(); err != nil {
			return nil, err
		}
	}
	p := &Program{InitGPR: map[int]uint64{}, InitMem: map[uint64][]byte{}}
	wi := 0
	for idx := 0; idx < int(nInsts); idx++ {
		in, n, err := DecodeInst(words[wi:], idx, pool)
		if err != nil {
			return nil, fmt.Errorf("@%d: %w", idx, err)
		}
		p.Code = append(p.Code, in)
		wi += n
	}
	if wi != len(words) {
		return nil, fmt.Errorf("isa: %d trailing code words", len(words)-wi)
	}
	entry, err := u32()
	if err != nil {
		return nil, err
	}
	p.Entry = int(entry)
	if p.CodeBase, err = u64(); err != nil {
		return nil, err
	}
	nRegs, err := u32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nRegs); i++ {
		r, err := u32()
		if err != nil {
			return nil, err
		}
		v, err := u64()
		if err != nil {
			return nil, err
		}
		p.InitGPR[int(r)] = v
	}
	nSegs, err := u32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nSegs); i++ {
		addr, err := u64()
		if err != nil {
			return nil, err
		}
		ln, err := u32()
		if err != nil {
			return nil, err
		}
		if off+int(ln) > len(data) {
			return nil, errors.New("isa: truncated memory segment")
		}
		p.InitMem[addr] = append([]byte{}, data[off:off+int(ln)]...)
		off += int(ln)
	}
	nName, err := u32()
	if err != nil {
		return nil, err
	}
	if off+int(nName) > len(data) {
		return nil, errors.New("isa: truncated name")
	}
	p.Name = string(data[off : off+int(nName)])
	return p, p.Validate()
}
