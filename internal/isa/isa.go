// Package isa defines the mini POWER-like instruction set used throughout the
// simulator: instruction classes, opcodes, register files (GPR, VSX vector
// registers, and the MMA accumulator file introduced by Power ISA 3.1), static
// program representation, and a functional executor that produces dynamic
// instruction traces for the timing and power models.
//
// The ISA is deliberately small but structurally faithful to the features the
// paper's evaluation depends on: 128-bit VSX SIMD (including the new 32-byte
// paired loads/stores), prefixed instructions, fusion-eligible instruction
// pairs, and the Matrix-Multiply Assist (MMA) outer-product instructions that
// read two vector registers and accumulate into 512-bit accumulators.
package isa

import (
	"fmt"
	"sync"
)

// Class is the coarse execution class of an instruction. The timing model
// maps classes onto execution-slice ports and the power model maps them onto
// unit activity.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassBranch     // unconditional direct branch
	ClassCondBranch // conditional direct branch
	ClassIndirBranch
	ClassLoad
	ClassStore
	ClassVSXLoad      // 16-byte vector load
	ClassVSXStore     // 16-byte vector store
	ClassVSXPairLoad  // new 32-byte load (lxvp)
	ClassVSXPairStore // new 32-byte store (stxvp)
	ClassVSXALU       // 128-bit SIMD integer/logical/permute
	ClassVSXFP        // 128-bit SIMD FP add/mul (non-FMA)
	ClassVSXFMA       // 128-bit SIMD fused multiply-add
	ClassMMA          // outer-product accumulate (xv*ger*)
	ClassMMAMove      // accumulator setup/readout (xxsetaccz, xxmtacc, xxmfacc)
	ClassSystem       // halt, hints
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	"nop", "int-alu", "int-mul", "int-div", "branch", "cond-branch",
	"indir-branch", "load", "store", "vsx-load", "vsx-store",
	"vsx-pair-load", "vsx-pair-store", "vsx-alu", "vsx-fp", "vsx-fma",
	"mma", "mma-move", "system",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsBranch reports whether the class transfers control.
func (c Class) IsBranch() bool {
	return c == ClassBranch || c == ClassCondBranch || c == ClassIndirBranch
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool {
	switch c {
	case ClassLoad, ClassStore, ClassVSXLoad, ClassVSXStore,
		ClassVSXPairLoad, ClassVSXPairStore:
		return true
	}
	return false
}

// IsLoad reports whether the class reads data memory.
func (c Class) IsLoad() bool {
	return c == ClassLoad || c == ClassVSXLoad || c == ClassVSXPairLoad
}

// IsStore reports whether the class writes data memory.
func (c Class) IsStore() bool {
	return c == ClassStore || c == ClassVSXStore || c == ClassVSXPairStore
}

// IsVSX reports whether the class executes on the vector-scalar (SIMD) unit.
func (c Class) IsVSX() bool {
	switch c {
	case ClassVSXALU, ClassVSXFP, ClassVSXFMA:
		return true
	}
	return false
}

// IsMMA reports whether the class uses the Matrix-Multiply Assist engine.
func (c Class) IsMMA() bool { return c == ClassMMA || c == ClassMMAMove }

// RegFile identifies an architected register file.
type RegFile uint8

// Register files.
const (
	FileNone RegFile = iota
	FileGPR          // 32 x 64-bit general purpose
	FileVSR          // 64 x 128-bit vector-scalar
	FileACC          // 8 x 512-bit MMA accumulators
)

// Register file sizes.
const (
	NumGPR = 32
	NumVSR = 64
	NumACC = 8
)

// Reg names an architected register: a file plus an index within it.
// The zero Reg (FileNone) means "no register".
type Reg struct {
	File RegFile
	Idx  uint8
}

// Convenience constructors for registers.
func GPR(i int) Reg { return Reg{FileGPR, uint8(i)} }
func VSR(i int) Reg { return Reg{FileVSR, uint8(i)} }
func ACC(i int) Reg { return Reg{FileACC, uint8(i)} }

// NoReg is the absent register operand.
var NoReg = Reg{}

// Valid reports whether r names a real register within its file's bounds.
func (r Reg) Valid() bool {
	switch r.File {
	case FileGPR:
		return r.Idx < NumGPR
	case FileVSR:
		return r.Idx < NumVSR
	case FileACC:
		return r.Idx < NumACC
	}
	return false
}

func (r Reg) String() string {
	switch r.File {
	case FileGPR:
		return fmt.Sprintf("r%d", r.Idx)
	case FileVSR:
		return fmt.Sprintf("vs%d", r.Idx)
	case FileACC:
		return fmt.Sprintf("acc%d", r.Idx)
	}
	return "-"
}

// Cond is a comparison condition for conditional branches.
type Cond uint8

// Branch conditions comparing two GPR operands as signed 64-bit integers.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondGE
	CondGT
	CondLE
)

var condNames = [...]string{"eq", "ne", "lt", "ge", "gt", "le"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Eval evaluates the condition on two signed operands.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondGE:
		return a >= b
	case CondGT:
		return a > b
	case CondLE:
		return a <= b
	}
	return false
}

// Opcode enumerates the operations of the mini-ISA.
type Opcode uint8

// Opcodes. The set is intentionally small; workloads are built from these.
const (
	OpNop Opcode = iota
	OpHalt
	// Integer.
	OpLi   // dst = imm
	OpAdd  // dst = a + b
	OpAddi // dst = a + imm
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl // dst = a << (imm & 63)
	OpShr // dst = a >> (imm & 63) (logical)
	// Control flow.
	OpB    // unconditional, Target
	OpBc   // conditional: Cond(a, b) -> Target
	OpBr   // indirect: target PC index in GPR a
	OpCall // unconditional with link semantics (modelled as branch)
	// Scalar memory. EA = GPR[a] + imm.
	OpLd  // 8-byte load -> GPR dst
	OpSt  // 8-byte store from GPR b
	OpLw  // 4-byte zero-extended load
	OpStw // 4-byte store
	// Vector memory.
	OpLxv   // 16-byte load -> VSR dst
	OpStxv  // 16-byte store from VSR b
	OpLxvp  // 32-byte load -> VSR pair dst, dst+1 (POWER10)
	OpStxvp // 32-byte store from VSR pair b, b+1 (POWER10)
	// VSX arithmetic (2 x double lanes, or 4 x float lanes).
	OpXvadddp   // dst = a + b (2 DP lanes)
	OpXvmuldp   // dst = a * b
	OpXvmaddadp // dst = a*b + dst (2 DP FMA lanes = 4 flops)
	OpXvmaddasp // dst = a*b + dst (4 SP FMA lanes = 8 flops)
	OpXxlxor    // 128-bit logical xor (also used to zero VSRs)
	OpXxperm    // permute (modelled as logical)
	// MMA (Power ISA 3.1).
	OpXxsetaccz  // zero accumulator dst
	OpXxmtacc    // move 4 VSRs (a..a+3) into accumulator dst
	OpXxmfacc    // move accumulator a into 4 VSRs (dst..dst+3)
	OpXvf64gerpp // ACC[4][2] += VSRpair(a,a+1)[4 dbl] (x) VSR(b)[2 dbl]: 8 FMA = 16 flops
	OpXvf32gerpp // ACC[4][4] += VSR(a)[4 flt] (x) VSR(b)[4 flt]: 16 FMA = 32 flops
	OpXvi8ger4pp // INT8 outer product w/ 4-way dot: 64 MACs = 128 int ops
	// Hints.
	OpMMAWake // proactive MMA power-on hint (Section IV-A)
	// Splat loads (BLAS kernel staples).
	OpLxvdsx // load 8 bytes, splat to both DP lanes
	OpLxvwsx // load 4 bytes, splat to all four SP lanes
	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

var opNames = [...]string{
	"nop", "halt",
	"li", "add", "addi", "sub", "mul", "div", "and", "or", "xor", "shl", "shr",
	"b", "bc", "br", "call",
	"ld", "st", "lw", "stw",
	"lxv", "stxv", "lxvp", "stxvp",
	"xvadddp", "xvmuldp", "xvmaddadp", "xvmaddasp", "xxlxor", "xxperm",
	"xxsetaccz", "xxmtacc", "xxmfacc", "xvf64gerpp", "xvf32gerpp", "xvi8ger4pp",
	"mmawake", "lxvdsx", "lxvwsx",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// opInfo is the static metadata of one opcode.
type opInfo struct {
	class  Class
	flops  uint8 // floating-point operations performed
	intops uint8 // integer MACs for int8 MMA
	size   uint8 // memory access bytes (0 if not memory)
}

// opTable is indexed directly by the uint8 opcode because the metadata
// lookups run once or more per dynamic instruction in both the functional
// and the timing layer. Undefined opcodes read the zero opInfo (ClassNop, no
// flops, no memory).
var opTable = [256]opInfo{
	OpNop:  {class: ClassNop},
	OpHalt: {class: ClassSystem},

	OpLi:   {class: ClassIntALU},
	OpAdd:  {class: ClassIntALU},
	OpAddi: {class: ClassIntALU},
	OpSub:  {class: ClassIntALU},
	OpMul:  {class: ClassIntMul},
	OpDiv:  {class: ClassIntDiv},
	OpAnd:  {class: ClassIntALU},
	OpOr:   {class: ClassIntALU},
	OpXor:  {class: ClassIntALU},
	OpShl:  {class: ClassIntALU},
	OpShr:  {class: ClassIntALU},

	OpB:    {class: ClassBranch},
	OpBc:   {class: ClassCondBranch},
	OpBr:   {class: ClassIndirBranch},
	OpCall: {class: ClassBranch},

	OpLd:  {class: ClassLoad, size: 8},
	OpSt:  {class: ClassStore, size: 8},
	OpLw:  {class: ClassLoad, size: 4},
	OpStw: {class: ClassStore, size: 4},

	OpLxv:   {class: ClassVSXLoad, size: 16},
	OpStxv:  {class: ClassVSXStore, size: 16},
	OpLxvp:  {class: ClassVSXPairLoad, size: 32},
	OpStxvp: {class: ClassVSXPairStore, size: 32},

	OpXvadddp:   {class: ClassVSXFP, flops: 2},
	OpXvmuldp:   {class: ClassVSXFP, flops: 2},
	OpXvmaddadp: {class: ClassVSXFMA, flops: 4},
	OpXvmaddasp: {class: ClassVSXFMA, flops: 8},
	OpXxlxor:    {class: ClassVSXALU},
	OpXxperm:    {class: ClassVSXALU},

	OpXxsetaccz:  {class: ClassMMAMove},
	OpXxmtacc:    {class: ClassMMAMove},
	OpXxmfacc:    {class: ClassMMAMove},
	OpXvf64gerpp: {class: ClassMMA, flops: 16},
	OpXvf32gerpp: {class: ClassMMA, flops: 32},
	OpXvi8ger4pp: {class: ClassMMA, intops: 128},

	OpMMAWake: {class: ClassSystem},

	OpLxvdsx: {class: ClassVSXLoad, size: 8},
	OpLxvwsx: {class: ClassVSXLoad, size: 4},
}

// operandFiles lists, per opcode, the register file the functional VM
// indexes each operand slot (Dst, A, B) with; FileNone marks a slot the VM
// ignores. Validate holds every instruction to it, so no register index can
// leave its file at run time.
var operandFiles = [numOpcodes][3]RegFile{
	OpLi:   {FileGPR},
	OpAdd:  {FileGPR, FileGPR, FileGPR},
	OpAddi: {FileGPR, FileGPR},
	OpSub:  {FileGPR, FileGPR, FileGPR},
	OpMul:  {FileGPR, FileGPR, FileGPR},
	OpDiv:  {FileGPR, FileGPR, FileGPR},
	OpAnd:  {FileGPR, FileGPR, FileGPR},
	OpOr:   {FileGPR, FileGPR, FileGPR},
	OpXor:  {FileGPR, FileGPR, FileGPR},
	OpShl:  {FileGPR, FileGPR},
	OpShr:  {FileGPR, FileGPR},

	OpBc: {FileNone, FileGPR, FileGPR},
	OpBr: {FileNone, FileGPR},

	OpLd:  {FileGPR, FileGPR},
	OpSt:  {FileNone, FileGPR, FileGPR},
	OpLw:  {FileGPR, FileGPR},
	OpStw: {FileNone, FileGPR, FileGPR},

	OpLxv:    {FileVSR, FileGPR},
	OpStxv:   {FileNone, FileGPR, FileVSR},
	OpLxvp:   {FileVSR, FileGPR},
	OpStxvp:  {FileNone, FileGPR, FileVSR},
	OpLxvdsx: {FileVSR, FileGPR},
	OpLxvwsx: {FileVSR, FileGPR},

	OpXvadddp:   {FileVSR, FileVSR, FileVSR},
	OpXvmuldp:   {FileVSR, FileVSR, FileVSR},
	OpXvmaddadp: {FileVSR, FileVSR, FileVSR},
	OpXvmaddasp: {FileVSR, FileVSR, FileVSR},
	OpXxlxor:    {FileVSR, FileVSR, FileVSR},
	OpXxperm:    {FileVSR, FileVSR},

	OpXxsetaccz:  {FileACC},
	OpXxmtacc:    {FileACC, FileVSR},
	OpXxmfacc:    {FileVSR, FileACC},
	OpXvf64gerpp: {FileACC, FileVSR, FileVSR},
	OpXvf32gerpp: {FileACC, FileVSR, FileVSR},
	OpXvi8ger4pp: {FileACC, FileVSR, FileVSR},
}

// ClassOf returns the execution class of an opcode.
func ClassOf(o Opcode) Class { return opTable[o].class }

// FlopsOf returns the floating-point operations performed by one dynamic
// instance of the opcode.
func FlopsOf(o Opcode) int { return int(opTable[o].flops) }

// IntOpsOf returns integer MAC operations (INT8 MMA) per dynamic instance.
func IntOpsOf(o Opcode) int { return int(opTable[o].intops) }

// MemBytesOf returns the memory footprint in bytes of one access, 0 for
// non-memory opcodes.
func MemBytesOf(o Opcode) int { return int(opTable[o].size) }

// Inst is one static instruction.
type Inst struct {
	Op       Opcode
	Dst      Reg
	A, B     Reg // register sources
	Imm      int64
	Cond     Cond
	Target   int  // static code index for direct branches
	Prefixed bool // 8-byte prefixed encoding (Power ISA 3.1)
}

// Class returns the instruction's execution class.
func (in *Inst) Class() Class { return ClassOf(in.Op) }

// Bytes returns the encoded size of the instruction (4, or 8 when prefixed).
func (in *Inst) Bytes() uint64 {
	if in.Prefixed {
		return 8
	}
	return 4
}

func (in Inst) String() string {
	switch in.Class() {
	case ClassBranch:
		return fmt.Sprintf("%s -> @%d", in.Op, in.Target)
	case ClassCondBranch:
		return fmt.Sprintf("%s.%s %s,%s -> @%d", in.Op, in.Cond, in.A, in.B, in.Target)
	case ClassIndirBranch:
		return fmt.Sprintf("%s (%s)", in.Op, in.A)
	}
	if in.Class().IsMem() {
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, pick(in.Dst, in.B), in.Imm, in.A)
	}
	return fmt.Sprintf("%s %s, %s, %s, imm=%d", in.Op, in.Dst, in.A, in.B, in.Imm)
}

func pick(a, b Reg) Reg {
	if a.Valid() {
		return a
	}
	return b
}

// Program is a static code sequence plus initial architectural state.
// PC i corresponds to virtual address CodeBase + offset of instruction i.
type Program struct {
	Name string
	Code []Inst
	// Entry is the index of the first instruction executed.
	Entry int
	// InitGPR seeds general-purpose registers before execution.
	InitGPR map[int]uint64
	// InitMem seeds memory: address -> bytes.
	InitMem map[uint64][]byte
	// CodeBase is the virtual address of Code[0].
	CodeBase uint64

	pcsOnce sync.Once
	pcs     []uint64 // lazily built PC table
}

// DefaultCodeBase is used when a program does not set CodeBase.
const DefaultCodeBase = 0x1000_0000

// PC returns the virtual address of instruction index i, accounting for
// prefixed (8-byte) instructions. The table build is guarded so that
// concurrent simulations sharing one Program (SMT streams, the parallel
// experiment runner) are race free.
func (p *Program) PC(i int) uint64 {
	p.pcsOnce.Do(p.buildPCs)
	return p.pcs[i]
}

func (p *Program) buildPCs() {
	base := p.CodeBase
	if base == 0 {
		base = DefaultCodeBase
	}
	p.pcs = make([]uint64, len(p.Code)+1)
	addr := base
	for j := range p.Code {
		p.pcs[j] = addr
		addr += p.Code[j].Bytes()
	}
	p.pcs[len(p.Code)] = addr
}

// Validate checks that the program is well-formed: defined opcodes, branch
// targets in range, every operand the opcode reads or writes in the file it
// expects, registers within their files, initial registers and entry in
// range. A valid program runs on the VM and the timing model without any
// index leaving its bounds.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	for r := range p.InitGPR {
		if r < 0 || r >= NumGPR {
			return fmt.Errorf("program %q: initial value for r%d out of range", p.Name, r)
		}
	}
	for i := range p.Code {
		in := &p.Code[i]
		if int(in.Op) >= NumOpcodes {
			return fmt.Errorf("program %q: @%d undefined opcode %v", p.Name, i, in.Op)
		}
		c := in.Class()
		if c == ClassBranch || c == ClassCondBranch {
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("program %q: @%d %s target %d out of range", p.Name, i, in.Op, in.Target)
			}
		}
		for slot, r := range [...]Reg{in.Dst, in.A, in.B} {
			if want := operandFiles[in.Op][slot]; want != FileNone && r.File != want {
				return fmt.Errorf("program %q: @%d %s operand %d is %v, in the wrong register file", p.Name, i, in.Op, slot, r)
			}
			if r.File != FileNone && !r.Valid() {
				return fmt.Errorf("program %q: @%d %s invalid register %v", p.Name, i, in.Op, r)
			}
		}
	}
	return nil
}
