package isa

import (
	"fmt"
	"math"
)

// DynInst is one dynamic (executed) instruction as the timing, power and
// methodology models consume it: a Record with its PC and NextPC rebuilt
// from the program's PC table (Record.DynInst).
type DynInst struct {
	Site          // static index and branch outcome, in one word
	PC     uint64 // virtual address of the instruction
	NextPC uint64 // address of the next dynamic instruction
	EA     uint64 // effective address for memory operations
}

// Site is the static half of a DynInst: which instruction executed and
// which way it branched. Nesting it keeps DynInst at four fields in 32
// bytes, which the compiler passes and copies in registers.
type Site struct {
	Idx   int32 // index into Program.Code
	Taken bool  // branch outcome (true also for unconditional)
}

// Record is one dynamic instruction as the VM writes it, in 16 bytes against
// the 32 of DynInst: the static index, the static index of the instruction
// executed next and the branch outcome, and the effective address. Compact
// records keep a whole-trace recording small and let the VM write a block of
// them without looking up a PC.
type Record struct {
	idx int32
	// next is the static index of the following dynamic instruction shifted
	// left one, with the branch-taken outcome in bit 0.
	next uint32
	ea   uint64
}

// Idx is the record's static instruction index.
func (r *Record) Idx() int32 { return r.idx }

// Next is the static index of the instruction executed after this one; a
// halt's is its own index plus one.
func (r *Record) Next() int { return int(r.next >> 1) }

// Taken is the branch outcome (true also for unconditional branches).
func (r *Record) Taken() bool { return r.next&1 != 0 }

// EA is the record's effective address (0 for non-memory instructions).
func (r *Record) EA() uint64 { return r.ea }

// DynInst rebuilds the full dynamic instruction from pcs, the program's PC
// table (Program.PCs). A halt's successor index is idx+1, and pcs[idx+1] is
// its PC plus its size, so no instruction needs a special case.
func (r *Record) DynInst(pcs []uint64) DynInst {
	return DynInst{
		Site:   Site{Idx: r.idx, Taken: r.next&1 != 0},
		PC:     pcs[r.idx],
		NextPC: pcs[r.next>>1],
		EA:     r.ea,
	}
}

// VM is the functional executor: it runs a Program architecturally and
// produces the dynamic instruction stream. It models no timing; the
// micro-architecture simulator replays its output.
type VM struct {
	Prog *Program
	Mem  *Memory

	GPRs [NumGPR]uint64
	VSRs [NumVSR][2]uint64
	ACCs [NumACC][8]uint64 // 512-bit accumulators as 8 x 64-bit words

	pc      int
	halted  bool
	retired uint64
}

// NewVM prepares a VM with the program's initial state loaded.
func NewVM(p *Program) *VM {
	vm := &VM{Prog: p, Mem: NewMemory(), pc: p.Entry}
	for i, v := range p.InitGPR {
		vm.GPRs[i] = v
	}
	vm.Mem.LoadImage(p.InitMem)
	return vm
}

// Reset restores the VM to its initial architectural state (registers,
// memory image, entry PC) without reallocating. Memory pages are zeroed in
// place, so re-running a program over the same footprint is allocation-free.
func (vm *VM) Reset() {
	vm.GPRs = [NumGPR]uint64{}
	for i, v := range vm.Prog.InitGPR {
		vm.GPRs[i] = v
	}
	vm.VSRs = [NumVSR][2]uint64{}
	vm.ACCs = [NumACC][8]uint64{}
	vm.pc = vm.Prog.Entry
	vm.halted = false
	vm.retired = 0
	vm.Mem.Reset()
	vm.Mem.LoadImage(vm.Prog.InitMem)
}

// Halted reports whether the program executed OpHalt.
func (vm *VM) Halted() bool { return vm.halted }

// Retired returns the count of dynamically executed instructions.
func (vm *VM) Retired() uint64 { return vm.retired }

// PC returns the current static code index.
func (vm *VM) PC() int { return vm.pc }

func f64(u uint64) float64   { return math.Float64frombits(u) }
func u64(f float64) uint64   { return math.Float64bits(f) }
func f32lo(u uint64) float32 { return math.Float32frombits(uint32(u)) }
func f32hi(u uint64) float32 { return math.Float32frombits(uint32(u >> 32)) }
func packF32(lo, hi float32) uint64 {
	return uint64(math.Float32bits(lo)) | uint64(math.Float32bits(hi))<<32
}

// vsrF64 views a VSR as two doubles.
func vsrF64(v [2]uint64) [2]float64 { return [2]float64{f64(v[0]), f64(v[1])} }

// vsrF32 views a VSR as four floats.
func vsrF32(v [2]uint64) [4]float32 {
	return [4]float32{f32lo(v[0]), f32hi(v[0]), f32lo(v[1]), f32hi(v[1])}
}

// runBlock is the number of records Run hands its callback at a time.
const runBlock = 1024

// Fill executes up to len(buf) instructions and writes the record of each,
// in order, into buf. It returns the number executed: fewer than len(buf)
// when the program halts, runs off the end of its code, or meets an
// instruction it cannot execute. That instruction is not executed and the
// VM stays before it, so the records before it are in buf and the next Fill
// returns the same error having executed nothing.
func (vm *VM) Fill(buf []Record) (int, error) {
	n, err := vm.exec(buf, uint64(len(buf)))
	return int(n), err
}

// Run executes up to budget instructions and returns the number executed,
// stopping early where Fill does. It hands the records to use in blocks, in
// order, through one buffer it reuses; with a nil use it records nothing.
func (vm *VM) Run(budget uint64, use func([]Record)) (uint64, error) {
	if use == nil {
		return vm.exec(nil, budget)
	}
	buf := make([]Record, min(budget, runBlock))
	var n uint64
	for n < budget {
		lim := min(budget-n, runBlock)
		k, err := vm.exec(buf[:lim], lim)
		n += k
		if k > 0 {
			use(buf[:k])
		}
		if err != nil || k < lim {
			return n, err
		}
	}
	return n, nil
}

// exec is the interpreter. It executes up to budget instructions and, when
// buf is not nil, writes the record of each into buf[0:budget]. The program
// counter and the halt flag live in locals for the whole call and the
// register files and memory behind local pointers, so an instruction costs
// its opcode's work and one 16-byte record.
func (vm *VM) exec(buf []Record, budget uint64) (uint64, error) {
	code := vm.Prog.Code
	gpr, vsr, acc, mem := &vm.GPRs, &vm.VSRs, &vm.ACCs, vm.Mem
	pc, halted := vm.pc, vm.halted
	var n uint64
	var err error
loop:
	for ; n < budget && !halted && uint(pc) < uint(len(code)); n++ {
		in := &code[pc]
		next := pc + 1
		var taken uint32
		var ea uint64

		switch in.Op {
		case OpNop, OpMMAWake:
			// no architectural effect
		case OpHalt:
			halted = true
		case OpLi:
			gpr[in.Dst.Idx] = uint64(in.Imm)
		case OpAdd:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] + gpr[in.B.Idx]
		case OpAddi:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] + uint64(in.Imm)
		case OpSub:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] - gpr[in.B.Idx]
		case OpMul:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] * gpr[in.B.Idx]
		case OpDiv:
			if d := gpr[in.B.Idx]; d == 0 {
				gpr[in.Dst.Idx] = 0
			} else {
				gpr[in.Dst.Idx] = gpr[in.A.Idx] / d
			}
		case OpAnd:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] & gpr[in.B.Idx]
		case OpOr:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] | gpr[in.B.Idx]
		case OpXor:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] ^ gpr[in.B.Idx]
		case OpShl:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] << (uint64(in.Imm) & 63)
		case OpShr:
			gpr[in.Dst.Idx] = gpr[in.A.Idx] >> (uint64(in.Imm) & 63)

		case OpB, OpCall:
			taken = 1
			next = in.Target
		case OpBc:
			if in.Cond.Eval(int64(gpr[in.A.Idx]), int64(gpr[in.B.Idx])) {
				taken = 1
				next = in.Target
			}
		case OpBr:
			t := int(gpr[in.A.Idx])
			if t < 0 || t >= len(code) {
				err = fmt.Errorf("%s @%d: indirect target %d out of range", vm.Prog.Name, pc, t)
				break loop
			}
			taken = 1
			next = t

		case OpLd:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			gpr[in.Dst.Idx] = mem.Read(ea, 8)
		case OpLw:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			gpr[in.Dst.Idx] = mem.Read(ea, 4)
		case OpSt:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			mem.Write(ea, gpr[in.B.Idx], 8)
		case OpStw:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			mem.Write(ea, gpr[in.B.Idx], 4)
		case OpLxv:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			vsr[in.Dst.Idx] = mem.Read128(ea)
		case OpStxv:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			mem.Write128(ea, vsr[in.B.Idx])
		case OpLxvdsx:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			v := mem.Read(ea, 8)
			vsr[in.Dst.Idx] = [2]uint64{v, v}
		case OpLxvwsx:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			w := mem.Read(ea, 4)
			v := w | w<<32
			vsr[in.Dst.Idx] = [2]uint64{v, v}
		case OpLxvp:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			vsr[in.Dst.Idx] = mem.Read128(ea)
			vsr[(in.Dst.Idx+1)%NumVSR] = mem.Read128(ea + 16)
		case OpStxvp:
			ea = gpr[in.A.Idx] + uint64(in.Imm)
			mem.Write128(ea, vsr[in.B.Idx])
			mem.Write128(ea+16, vsr[(in.B.Idx+1)%NumVSR])

		case OpXvadddp:
			a, c := vsrF64(vsr[in.A.Idx]), vsrF64(vsr[in.B.Idx])
			vsr[in.Dst.Idx] = [2]uint64{u64(a[0] + c[0]), u64(a[1] + c[1])}
		case OpXvmuldp:
			a, c := vsrF64(vsr[in.A.Idx]), vsrF64(vsr[in.B.Idx])
			vsr[in.Dst.Idx] = [2]uint64{u64(a[0] * c[0]), u64(a[1] * c[1])}
		case OpXvmaddadp:
			a, c := vsrF64(vsr[in.A.Idx]), vsrF64(vsr[in.B.Idx])
			d := vsrF64(vsr[in.Dst.Idx])
			vsr[in.Dst.Idx] = [2]uint64{u64(a[0]*c[0] + d[0]), u64(a[1]*c[1] + d[1])}
		case OpXvmaddasp:
			a, c := vsrF32(vsr[in.A.Idx]), vsrF32(vsr[in.B.Idx])
			d := vsrF32(vsr[in.Dst.Idx])
			var out [4]float32
			for i := range out {
				out[i] = a[i]*c[i] + d[i]
			}
			vsr[in.Dst.Idx] = [2]uint64{packF32(out[0], out[1]), packF32(out[2], out[3])}
		case OpXxlxor:
			vsr[in.Dst.Idx] = [2]uint64{
				vsr[in.A.Idx][0] ^ vsr[in.B.Idx][0],
				vsr[in.A.Idx][1] ^ vsr[in.B.Idx][1],
			}
		case OpXxperm:
			// Modelled as a byte rotate across the two words.
			a := vsr[in.A.Idx]
			vsr[in.Dst.Idx] = [2]uint64{a[0]>>8 | a[1]<<56, a[1]>>8 | a[0]<<56}

		case OpXxsetaccz:
			acc[in.Dst.Idx] = [8]uint64{}
		case OpXxmtacc:
			base := int(in.A.Idx)
			for r := 0; r < 4; r++ {
				v := vsr[(base+r)%NumVSR]
				acc[in.Dst.Idx][2*r] = v[0]
				acc[in.Dst.Idx][2*r+1] = v[1]
			}
		case OpXxmfacc:
			base := int(in.Dst.Idx)
			for r := 0; r < 4; r++ {
				vsr[(base+r)%NumVSR] = [2]uint64{
					acc[in.A.Idx][2*r], acc[in.A.Idx][2*r+1],
				}
			}
		case OpXvf64gerpp:
			// 4x2 DP outer product accumulate: X (VSR pair a,a+1) x Y (VSR b).
			var x [4]float64
			xa := vsrF64(vsr[in.A.Idx])
			xb := vsrF64(vsr[(in.A.Idx+1)%NumVSR])
			x[0], x[1], x[2], x[3] = xa[0], xa[1], xb[0], xb[1]
			y := vsrF64(vsr[in.B.Idx])
			a := &acc[in.Dst.Idx]
			for r := 0; r < 4; r++ {
				for c := 0; c < 2; c++ {
					w := &a[2*r+c]
					*w = u64(f64(*w) + x[r]*y[c])
				}
			}
		case OpXvf32gerpp:
			// 4x4 SP outer product accumulate; accumulator rows hold 4 floats.
			x := vsrF32(vsr[in.A.Idx])
			y := vsrF32(vsr[in.B.Idx])
			a := &acc[in.Dst.Idx]
			for r := 0; r < 4; r++ {
				row := [2]uint64{a[2*r], a[2*r+1]}
				f := vsrF32(row)
				for c := 0; c < 4; c++ {
					f[c] += x[r] * y[c]
				}
				a[2*r] = packF32(f[0], f[1])
				a[2*r+1] = packF32(f[2], f[3])
			}
		case OpXvi8ger4pp:
			// 4x4 INT8 outer product with 4-way dot product per cell.
			ac := &acc[in.Dst.Idx]
			a := vsr[in.A.Idx]
			c := vsr[in.B.Idx]
			for r := 0; r < 4; r++ {
				for col := 0; col < 4; col++ {
					var dot int32
					for k := 0; k < 4; k++ {
						av := int8(a[r/2] >> uint((r%2)*32+k*8))
						bv := int8(c[col/2] >> uint((col%2)*32+k*8))
						dot += int32(av) * int32(bv)
					}
					w := &ac[2*r+col/2]
					shift := uint((col % 2) * 32)
					cur := int32(*w >> shift)
					*w = (*w &^ (0xFFFFFFFF << shift)) | uint64(uint32(cur+dot))<<shift
				}
			}

		default:
			err = fmt.Errorf("%s @%d: unimplemented opcode %v", vm.Prog.Name, pc, in.Op)
			break loop
		}

		if buf != nil {
			buf[n] = Record{idx: int32(pc), next: uint32(next)<<1 | taken, ea: ea}
		}
		pc = next
	}
	vm.pc, vm.halted = pc, halted
	vm.retired += n
	return n, err
}

// GPR returns the value of general-purpose register i.
func (vm *VM) GPR(i int) uint64 { return vm.GPRs[i] }

// VSRF64 returns the two double-precision lanes of VSR i.
func (vm *VM) VSRF64(i int) [2]float64 { return vsrF64(vm.VSRs[i]) }

// ACCF64 returns accumulator i as a 4x2 grid of doubles.
func (vm *VM) ACCF64(i int) [4][2]float64 {
	var out [4][2]float64
	for r := 0; r < 4; r++ {
		out[r][0] = f64(vm.ACCs[i][2*r])
		out[r][1] = f64(vm.ACCs[i][2*r+1])
	}
	return out
}

// ACCF32 returns accumulator i as a 4x4 grid of floats.
func (vm *VM) ACCF32(i int) [4][4]float32 {
	var out [4][4]float32
	for r := 0; r < 4; r++ {
		f := vsrF32([2]uint64{vm.ACCs[i][2*r], vm.ACCs[i][2*r+1]})
		copy(out[r][:], f[:])
	}
	return out
}

// StateHash digests the VM's full architectural state: registers,
// accumulators, memory contents, control state and retirement count. Two
// executions that end in equal hashes are architecturally indistinguishable;
// the fault-injection engine compares an injected run's hash against the
// golden run's to detect silent data corruption.
func (vm *VM) StateHash() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	for _, v := range vm.GPRs {
		mix(v)
	}
	for _, v := range vm.VSRs {
		mix(v[0])
		mix(v[1])
	}
	for _, a := range vm.ACCs {
		for _, v := range a {
			mix(v)
		}
	}
	mix(uint64(vm.pc))
	if vm.halted {
		mix(1)
	} else {
		mix(0)
	}
	mix(vm.retired)
	mix(vm.Mem.Hash())
	return h
}
