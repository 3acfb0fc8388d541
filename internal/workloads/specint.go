package workloads

import (
	"sync"

	"power10sim/internal/isa"
)

// The synthetic SPECint-like suite. Each benchmark reproduces the dominant
// micro-architectural character of one class of SPECint workloads (the
// paper's evaluation currency): branch behaviour, working-set size, ILP,
// pointer chasing, code footprint, and SIMD content. Names are descriptive,
// not SPEC trademarks.
//
// Working sets are chosen to exercise the P9->P10 structural deltas:
// several sit between POWER9's 512 KiB and POWER10's 2 MiB L2.

// Per-benchmark data segment bases (each runs in its own VM).
const (
	segHeap  = 0x200_0000
	segTable = 0x400_0000
	segDict  = 0x600_0000
)

// emitLCG appends r(dst) = next LCG state from r(state) and leaves low bits
// usable as a pseudo-random value.
func emitLCG(b *isa.Builder, state, mulReg, dst isa.Reg) {
	b.Mul(state, state, mulReg)
	b.Addi(state, state, 1442695040888963407)
	b.Shr(dst, state, 33)
}

// chaseImage builds a pointer-chain image covering `entries` 64-bit slots
// spread over a region of `span` bytes, visiting slots in a deterministic
// shuffled order. Values are absolute addresses of the next element.
func chaseImage(base uint64, entries int, span uint64, seed uint64) []byte {
	rng := newLCG(seed)
	perm := make([]int, entries)
	for i := range perm {
		perm[i] = i
	}
	for i := entries - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	stride := span / uint64(entries)
	if stride < 8 {
		stride = 8
	}
	slots := make([]uint64, span/8)
	addrOf := func(idx int) uint64 { return base + uint64(idx)*stride }
	for i := 0; i < entries; i++ {
		next := perm[(i+1)%entries]
		slots[(addrOf(perm[i])-base)/8] = addrOf(next)
	}
	return U64Bytes(slots)
}

// Interp models interpreted-language execution (the paper's "interpreted
// languages / Python" class): a bytecode dispatch loop whose indirect branch
// target depends on the bytecode stream.
func Interp() *Workload { return sharedInterp() }

func interp() *Workload {
	const nOps = 8
	const progLen = 2048
	rng := newLCG(11)
	bytecode := make([]uint64, progLen)
	// Real bytecode has strong bigram statistics; follow a skewed Markov
	// chain (continue to op+1 with p=5/8, jump randomly otherwise) so a
	// target-history indirect predictor has something to learn.
	cur := uint64(0)
	for i := range bytecode {
		if rng.next()%8 < 5 {
			cur = (cur + 1) % nOps
		} else {
			cur = rng.next() % nOps
		}
		bytecode[i] = cur
	}
	b := isa.NewBuilder("interp")
	b.SetMem(segHeap, U64Bytes(bytecode))
	// Jump table filled post-build via label fixups: we instead branch
	// through a computed code index: handlers are laid out at fixed stride
	// so target = handlerBase + op*handlerLen.
	rIP := isa.GPR(1) // bytecode index
	rOp := isa.GPR(2)
	rSt := isa.GPR(3)   // interpreter "stack top" value
	rBase := isa.GPR(4) // bytecode base
	rLen := isa.GPR(5)
	rHB := isa.GPR(6) // handler base code index
	rHL := isa.GPR(7) // handler length
	rT := isa.GPR(8)
	rHeap := isa.GPR(9)
	rMask := isa.GPR(10)
	b.Li(rIP, 0)
	b.Li(rBase, segHeap)
	b.Li(rLen, progLen)
	b.Li(rHeap, segHeap+0x40000)
	b.Li(rMask, 0xFFF8)
	b.Label("dispatch")
	b.Shl(rT, rIP, 3)
	b.Add(rT, rT, rBase)
	b.Ld(rOp, rT, 0)
	b.Mul(rT, rOp, rHL)
	b.Add(rT, rT, rHB)
	b.Br(rT) // indirect dispatch
	// Handlers: nOps blocks of identical length (8 instructions each), so
	// the dispatch target is handlerBase + op*handlerLen.
	const handlerLen = 8
	for h := 0; h < nOps; h++ {
		switch h % 4 {
		case 0: // arithmetic
			b.Addi(rSt, rSt, int64(h+1))
			b.Mul(rSt, rSt, rSt)
			b.Shr(rSt, rSt, 3)
			b.Addi(rSt, rSt, 7)
			b.Nop()
			b.Nop()
		case 1: // heap load
			b.And(rT, rSt, rMask)
			b.Add(rT, rT, rHeap)
			b.Ld(rSt, rT, 0)
			b.Addi(rSt, rSt, 1)
			b.Nop()
			b.Nop()
		case 2: // heap store
			b.And(rT, rSt, rMask)
			b.Add(rT, rT, rHeap)
			b.St(rSt, rT, 0)
			b.Addi(rSt, rSt, 3)
			b.Nop()
			b.Nop()
		case 3: // logic
			b.Xor(rSt, rSt, rOp)
			b.Shl(rT, rSt, 1)
			b.Or(rSt, rSt, rT)
			b.Shr(rSt, rSt, 2)
			b.Nop()
			b.Nop()
		}
		b.Addi(rIP, rIP, 1)
		b.Bc(isa.CondLT, rIP, rLen, "dispatch")
		// falls through to next handler only at end of bytecode; wrap:
	}
	b.Li(rIP, 0)
	b.B("dispatch")
	p := b.MustBuild()
	// Fix handler base/length registers now that layout is known: the
	// first handler starts right after the Br.
	var brIdx int
	for i := range p.Code {
		if p.Code[i].Op == isa.OpBr {
			brIdx = i
			break
		}
	}
	p.InitGPR[int(rHB.Idx)] = uint64(brIdx + 1)
	p.InitGPR[int(rHL.Idx)] = handlerLen
	return &Workload{Name: "interp", Category: CatSPECint, Prog: p, Weight: 1, Budget: 90_000, Warmup: 25_000}
}

// Compile models compiler-like execution (the paper's gcc class): execution
// spread across many small procedures with a skewed (Zipf-like) call
// frequency distribution, indirect dispatch, biased branches, and moderate
// data traffic over 512 KiB. The long tail of lukewarm procedures is what
// limits Chopstix proxy coverage on gcc (the paper's 41% end).
func Compile() *Workload { return sharedCompile() }

func compile() *Workload {
	const nProcs = 16
	const procLen = 32 // instructions reserved per procedure slot
	// Zipf-like dispatch table: 32 slots worth of procedure ids.
	counts := []int{6, 5, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	var dispatch []uint64
	for id, c := range counts {
		for k := 0; k < c; k++ {
			dispatch = append(dispatch, uint64(id))
		}
	}

	b := isa.NewBuilder("compile")
	b.SetMem(segTable, U64Bytes(dispatch))
	rSt := isa.GPR(1)
	rMul := isa.GPR(2)
	rV := isa.GPR(3)
	rT := isa.GPR(4)
	rHeap := isa.GPR(5)
	rMask := isa.GPR(6)
	rIter := isa.GPR(8)
	rLim := isa.GPR(9)
	rTab := isa.GPR(11)
	rProc := isa.GPR(12)
	rPB := isa.GPR(13) // procedure base code index (patched post-build)
	rPL := isa.GPR(14) // procedure slot length
	b.Li(rSt, 98765)
	b.Li(rMul, 6364136223846793005)
	b.Li(rHeap, segHeap)
	b.Li(rMask, 0x7FFF8) // 512 KiB data
	b.Li(rIter, 0)
	b.Li(rLim, 22000)
	b.Li(rTab, segTable)
	b.Label("dispatch")
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondGE, rIter, rLim, "end")
	emitLCG(b, rSt, rMul, rV)
	b.And(rT, rV, isa.GPR(10)) // r10 = 31: dispatch-table slot
	b.Shl(rT, rT, 3)
	b.Add(rT, rT, rTab)
	b.Ld(rProc, rT, 0)
	b.Mul(rT, rProc, rPL)
	b.Add(rT, rT, rPB)
	b.Br(rT) // indirect call into the procedure table
	// Procedures: nProcs slots of exactly procLen instructions; the
	// executed body returns to the dispatcher, and the unreachable Nop
	// padding forms the cold gaps between hot functions.
	for p := 0; p < nProcs; p++ {
		emitted := 0
		switch p % 4 {
		case 0: // IR walking: dependent loads + ALU
			b.Shr(rT, rV, 4)
			b.And(rT, rT, rMask)
			b.Add(rT, rT, rHeap)
			b.Ld(rV, rT, 0)
			b.Xor(rSt, rSt, rV)
			b.Addi(rSt, rSt, 1)
			emitted = 6
		case 1: // symbol table update: load-modify-store
			b.And(rT, rV, rMask)
			b.Add(rT, rT, rHeap)
			b.Ld(rV, rT, 0)
			b.Addi(rV, rV, 3)
			b.St(rV, rT, 0)
			emitted = 5
		case 2: // constant folding: ALU chain
			b.Add(rSt, rSt, rV)
			b.Shl(rT, rSt, 2)
			b.Xor(rSt, rSt, rT)
			b.Shr(rT, rSt, 7)
			b.Or(rSt, rSt, rT)
			emitted = 5
		case 3: // biased branch on token class
			b.And(rT, rV, isa.GPR(15)) // r15 = 7
			b.Bc(isa.CondNE, rT, isa.GPR(16), blockLabel("common", p))
			b.And(rT, rV, rMask)
			b.Add(rT, rT, rHeap)
			b.St(rV, rT, 0)
			b.Label(blockLabel("common", p))
			b.Addi(rSt, rSt, 5)
			emitted = 6
		}
		b.B("dispatch")
		emitted++
		for ; emitted < procLen; emitted++ {
			b.Nop() // unreachable padding: the cold gap between functions
		}
	}
	b.Label("end")
	b.Halt()
	b.SetGPR(10, 31)
	b.SetGPR(15, 7)
	p := b.MustBuild()
	// Patch the procedure base: the first slot starts right after the Br.
	for i := range p.Code {
		if p.Code[i].Op == isa.OpBr {
			p.InitGPR[int(rPB.Idx)] = uint64(i + 1)
			break
		}
	}
	p.InitGPR[int(rPL.Idx)] = procLen
	return &Workload{Name: "compile", Category: CatSPECint, Prog: p, Weight: 1, Budget: 180_000, Warmup: 60_000}
}

func blockLabel(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// GraphOpt models network-optimization codes (mcf class): dependent pointer
// chasing over a working set that fits POWER10's 2 MiB L2 but thrashes
// POWER9's 512 KiB.
func GraphOpt() *Workload { return sharedGraphOpt() }

func graphOpt() *Workload {
	// 12288 entries on distinct 128B lines: a 1.5 MiB cache footprint that
	// fits POWER10's 2 MiB L2 but thrashes POWER9's 512 KiB. The chase
	// walks the cycle ~4 times so steady-state (not cold-miss) behaviour
	// dominates.
	const entries = 12288
	const span = entries * 128
	b := isa.NewBuilder("graphopt")
	b.SetMem(segTable, chaseImage(segTable, entries, span, 21))
	rP := isa.GPR(1)
	rSum := isa.GPR(2)
	rIter := isa.GPR(3)
	rLim := isa.GPR(4)
	b.Li(rP, segTable)
	b.Li(rIter, 0)
	b.Li(rLim, 65000)
	b.Label("chase")
	b.Ld(rP, rP, 0) // p = *p
	// Node-visit work (cost/flow arithmetic) overlapping the next chase.
	b.Add(rSum, rSum, rP)
	b.Shr(isa.GPR(5), rP, 4)
	b.Xor(rSum, rSum, isa.GPR(5))
	b.Addi(isa.GPR(6), isa.GPR(6), 3)
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "chase")
	b.Halt()
	return &Workload{Name: "graphopt", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 300_000, Warmup: 100_000}
}

// DSim models discrete-event simulation (omnetpp class): scattered
// loads/stores over a ~1 MiB event heap with predictable control.
func DSim() *Workload { return sharedDSim() }

func dsim() *Workload {
	b := isa.NewBuilder("dsim")
	rng := newLCG(31)
	heap := make([]uint64, 1<<17) // 1 MiB of events
	for i := range heap {
		heap[i] = rng.next()
	}
	b.SetMem(segHeap, U64Bytes(heap))
	rSt := isa.GPR(1)
	rMul := isa.GPR(2)
	rV := isa.GPR(3)
	rT := isa.GPR(4)
	rHeap := isa.GPR(5)
	rMask := isa.GPR(6)
	rIter := isa.GPR(7)
	rLim := isa.GPR(8)
	rEvt := isa.GPR(9)
	b.Li(rSt, 777)
	b.Li(rMul, 6364136223846793005)
	b.Li(rHeap, segHeap)
	b.Li(rMask, 0xFFFF8) // 1 MiB
	b.Li(rIter, 0)
	b.Li(rLim, 30000)
	b.Label("loop")
	emitLCG(b, rSt, rMul, rV)
	b.And(rT, rV, rMask)
	b.Add(rT, rT, rHeap)
	b.Ld(rEvt, rT, 0) // pop event
	b.Addi(rEvt, rEvt, 100)
	b.St(rEvt, rT, 0) // reschedule
	// (30000 events over the 1 MiB heap revisit lines ~3.7x: steady state.)
	b.Shr(rT, rEvt, 7)
	b.And(rT, rT, rMask)
	b.Add(rT, rT, rHeap)
	b.Ld(rV, rT, 0) // neighbour event
	b.Add(rSt, rSt, rV)
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "loop")
	b.Halt()
	return &Workload{Name: "dsim", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 400_000, Warmup: 140_000}
}

// MediaVec models media/vector codes (x264 class): streaming VSX FMA work
// that benefits directly from the doubled SIMD engines.
func MediaVec() *Workload { return sharedMediaVec() }

func mediaVec() *Workload {
	n := 4096
	rng := newLCG(41)
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i], dst[i] = rng.f64(), rng.f64()
	}
	b := isa.NewBuilder("mediavec")
	b.SetMem(addrX, F64Bytes(src))
	b.SetMem(addrY, F64Bytes(dst))
	rA := isa.GPR(1)
	rB := isa.GPR(2)
	rK := isa.GPR(3)
	rL := isa.GPR(4)
	rIter := isa.GPR(5)
	rLim := isa.GPR(6)
	b.Li(rIter, 0)
	b.Li(rLim, 60)
	b.Label("outer")
	b.Li(rA, addrX)
	b.Li(rB, addrY)
	b.Li(rK, 0)
	b.Li(rL, int64(n/8))
	b.Label("loop")
	for u := 0; u < 4; u++ {
		b.Lxv(isa.VSR(u), rA, int64(u*16))
		b.Lxv(isa.VSR(8+u), rB, int64(u*16))
	}
	for u := 0; u < 4; u++ {
		b.Xvmaddadp(isa.VSR(16+u), isa.VSR(u), isa.VSR(8+u))
	}
	for u := 0; u < 4; u++ {
		b.Xvadddp(isa.VSR(24+u), isa.VSR(16+u), isa.VSR(8+u))
	}
	b.Stxv(isa.VSR(24), rB, 0)
	b.Stxv(isa.VSR(25), rB, 16)
	b.Addi(rA, rA, 64)
	b.Addi(rB, rB, 64)
	b.Addi(rK, rK, 1)
	b.Bc(isa.CondLT, rK, rL, "loop")
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "outer")
	b.Halt()
	return &Workload{Name: "mediavec", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 60_000}
}

// BoardEval models game-tree searching (deepsjeng class): hard
// data-dependent branches over a small working set.
func BoardEval() *Workload { return sharedBoardEval() }

func boardEval() *Workload {
	b := isa.NewBuilder("boardeval")
	rSt := isa.GPR(1)
	rMul := isa.GPR(2)
	rV := isa.GPR(3)
	rT := isa.GPR(4)
	rOne := isa.GPR(5)
	rScore := isa.GPR(6)
	rIter := isa.GPR(7)
	rLim := isa.GPR(8)
	rZero := isa.GPR(9)
	b.Li(rSt, 31337)
	b.Li(rMul, 6364136223846793005)
	b.Li(rOne, 1)
	b.Li(rIter, 0)
	b.Li(rLim, 9000)
	b.Label("node")
	// Evaluation branches: mostly pattern-following (history-predictable
	// alternation with occasional data-driven surprises), like real search
	// code — hard but not coin-flip random.
	emitLCG(b, rSt, rMul, rV)
	b.Shr(rT, rV, 5)
	b.And(rT, rT, isa.GPR(10)) // r10 = 15: surprise 1/16 of the time
	b.Bc(isa.CondEQ, rT, rZero, "prune")
	b.And(rT, rIter, rOne) // alternating pattern otherwise
	b.Bc(isa.CondEQ, rT, rZero, "prune")
	b.Addi(rScore, rScore, 5)
	b.Mul(rScore, rScore, rOne)
	b.B("next")
	b.Label("prune")
	b.Sub(rScore, rScore, rOne)
	b.Shr(rT, rV, 1)
	b.And(rT, rT, rOne)
	b.Bc(isa.CondEQ, rT, rZero, "deep")
	b.Addi(rScore, rScore, 2)
	b.Label("deep")
	b.Label("next")
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "node")
	b.Halt()
	b.SetGPR(10, 15)
	return &Workload{Name: "boardeval", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 90_000}
}

// PathFind models go/game playout engines (leela class): a mix of short
// pointer chases and moderately predictable branches on 256 KiB of state.
func PathFind() *Workload { return sharedPathFind() }

func pathFind() *Workload {
	const entries = 4096
	const span = 1 << 18 // 256 KiB
	b := isa.NewBuilder("pathfind")
	b.SetMem(segTable, chaseImage(segTable, entries, span, 51))
	rP := isa.GPR(1)
	rSt := isa.GPR(2)
	rMul := isa.GPR(3)
	rV := isa.GPR(4)
	rT := isa.GPR(5)
	rIter := isa.GPR(6)
	rLim := isa.GPR(7)
	rThree := isa.GPR(8)
	rZero := isa.GPR(9)
	b.Li(rP, segTable)
	b.Li(rSt, 999)
	b.Li(rMul, 6364136223846793005)
	b.Li(rThree, 3)
	b.Li(rIter, 0)
	b.Li(rLim, 8000)
	b.Label("loop")
	b.Ld(rP, rP, 0)
	emitLCG(b, rSt, rMul, rV)
	b.And(rT, rV, rThree)
	b.Bc(isa.CondNE, rT, rZero, "common")
	b.Xor(rSt, rSt, rP)
	b.Addi(rSt, rSt, 17)
	b.Label("common")
	b.Add(rSt, rSt, rV)
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "loop")
	b.Halt()
	return &Workload{Name: "pathfind", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 70_000, Warmup: 20_000}
}

// IntCompute models pure integer computation (exchange2 class): nested
// L1-resident loops with high ILP and fully predictable branches.
func IntCompute() *Workload { return sharedIntCompute() }

func intCompute() *Workload {
	b := isa.NewBuilder("intcompute")
	rI := isa.GPR(1)
	rJ := isa.GPR(2)
	rLI := isa.GPR(3)
	rLJ := isa.GPR(4)
	b.Li(rLI, 700)
	b.Li(rLJ, 12)
	b.Li(rI, 0)
	b.Label("outer")
	b.Li(rJ, 0)
	b.Label("inner")
	for u := 0; u < 6; u++ {
		r := isa.GPR(10 + u)
		b.Addi(r, r, int64(u+1))
	}
	for u := 0; u < 3; u++ {
		b.Add(isa.GPR(20+u), isa.GPR(10+2*u), isa.GPR(11+2*u))
	}
	b.Xor(isa.GPR(23), isa.GPR(20), isa.GPR(21))
	b.Addi(rJ, rJ, 1)
	b.Bc(isa.CondLT, rJ, rLJ, "inner")
	b.Addi(rI, rI, 1)
	b.Bc(isa.CondLT, rI, rLI, "outer")
	b.Halt()
	return &Workload{Name: "intcompute", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 70_000}
}

// Compress models dictionary compression (xz class): byte-granular loads,
// match loops with data-dependent exits, 256 KiB dictionary.
func Compress() *Workload { return sharedCompress() }

func compress() *Workload {
	b := isa.NewBuilder("compress")
	rng := newLCG(61)
	dict := make([]uint64, 1<<15) // 256 KiB
	for i := range dict {
		dict[i] = rng.next()
	}
	b.SetMem(segDict, U64Bytes(dict))
	rSt := isa.GPR(1)
	rMul := isa.GPR(2)
	rV := isa.GPR(3)
	rT := isa.GPR(4)
	rDict := isa.GPR(5)
	rMask := isa.GPR(6)
	rLen := isa.GPR(7)
	rIter := isa.GPR(8)
	rLim := isa.GPR(9)
	rSeven := isa.GPR(10)
	rByte := isa.GPR(11)
	rAcc := isa.GPR(12)
	b.Li(rSt, 424242)
	b.Li(rMul, 6364136223846793005)
	b.Li(rDict, segDict)
	b.Li(rMask, 0x3FFF8)
	b.Li(rSeven, 7)
	b.Li(rIter, 0)
	b.Li(rLim, 5000)
	b.Label("match")
	emitLCG(b, rSt, rMul, rV)
	b.And(rT, rV, rMask)
	b.Add(rT, rT, rDict)
	// Inner match loop: compare up to 1+(v&7) words.
	b.And(rLen, rV, rSeven)
	b.Addi(rLen, rLen, 1)
	b.Label("cmp")
	b.Lw(rByte, rT, 0)
	b.Add(rAcc, rAcc, rByte)
	b.Addi(rT, rT, 4)
	b.Addi(rLen, rLen, -1)
	b.Bc(isa.CondGT, rLen, isa.GPR(13), "cmp") // r13 = 0
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "match")
	b.Halt()
	return &Workload{Name: "compress", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 90_000, Warmup: 25_000}
}

// XMLTrans models markup transformation (xalancbmk class): byte scanning
// with compare branches, frequent calls into small helpers, stores.
func XMLTrans() *Workload { return sharedXMLTrans() }

func xmlTrans() *Workload {
	b := isa.NewBuilder("xmltrans")
	rng := newLCG(71)
	text := make([]uint64, 1<<14) // 128 KiB of "text"
	for i := range text {
		text[i] = rng.next()
	}
	b.SetMem(segHeap, U64Bytes(text))
	rPos := isa.GPR(1)
	rEnd := isa.GPR(2)
	rW := isa.GPR(3)
	rT := isa.GPR(4)
	rOut := isa.GPR(5)
	rCnt := isa.GPR(6)
	rMask := isa.GPR(7)
	rIter := isa.GPR(8)
	rLim := isa.GPR(9)
	b.Li(rIter, 0)
	b.Li(rLim, 28)
	b.Label("restart")
	b.Li(rPos, segHeap)
	b.Li(rEnd, segHeap+(1<<17))
	b.Li(rOut, segHeap+0x200000)
	b.Li(rMask, 0xFF)
	b.Label("scan")
	b.Lw(rW, rPos, 0)
	b.And(rT, rW, rMask)
	b.Bc(isa.CondLT, rT, isa.GPR(10), "emit") // r10 = 64: ~25% taken
	b.Add(rCnt, rCnt, rW)
	b.B("advance")
	b.Label("emit")
	b.Stw(rW, rOut, 0)
	b.Addi(rOut, rOut, 4)
	b.Addi(rCnt, rCnt, 1)
	b.Label("advance")
	b.Addi(rPos, rPos, 4)
	b.Bc(isa.CondLT, rPos, rEnd, "scan")
	b.Addi(rIter, rIter, 1)
	b.Bc(isa.CondLT, rIter, rLim, "restart")
	b.Halt()
	b.SetGPR(10, 64)
	return &Workload{Name: "xmltrans", Category: CatSPECint, Prog: b.MustBuild(), Weight: 1, Budget: 90_000, Warmup: 25_000}
}

// The one instance of each suite benchmark, built by its lower-case builder
// on first use.
var (
	sharedInterp     = sync.OnceValue(interp)
	sharedCompile    = sync.OnceValue(compile)
	sharedGraphOpt   = sync.OnceValue(graphOpt)
	sharedDSim       = sync.OnceValue(dsim)
	sharedMediaVec   = sync.OnceValue(mediaVec)
	sharedBoardEval  = sync.OnceValue(boardEval)
	sharedPathFind   = sync.OnceValue(pathFind)
	sharedIntCompute = sync.OnceValue(intCompute)
	sharedCompress   = sync.OnceValue(compress)
	sharedXMLTrans   = sync.OnceValue(xmlTrans)
)

// SPECintSuite returns the 10-benchmark synthetic suite with equal weights.
// The slice is fresh on every call, so a caller may append to it or reorder
// it; its workloads are the shared, read-only instances the constructors
// return (see the package doc).
func SPECintSuite() []*Workload {
	return []*Workload{
		Interp(), Compile(), GraphOpt(), DSim(), MediaVec(),
		BoardEval(), PathFind(), IntCompute(), Compress(), XMLTrans(),
	}
}
