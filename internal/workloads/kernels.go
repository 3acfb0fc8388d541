package workloads

import (
	"fmt"
	"math/bits"

	"power10sim/internal/isa"
)

// Matrix base addresses for the GEMM kernels. A is stored transposed
// (column-major panels, as OpenBLAS packs it), B and C row-major.
const (
	addrAt = 0x10_0000
	addrB  = 0x40_0000
	addrC  = 0x70_0000
	addrX  = 0xA0_0000
	addrY  = 0xC0_0000
)

// GEMMSize gives the matrix dimensions C[MxN] += A[MxK] x B[KxN].
type GEMMSize struct{ M, N, K int }

// Valid checks blocking constraints of the micro-kernels.
func (s GEMMSize) Valid() error {
	if s.M <= 0 || s.N <= 0 || s.K <= 0 {
		return fmt.Errorf("gemm: non-positive dims %+v", s)
	}
	if s.M%8 != 0 || s.N%16 != 0 {
		return fmt.Errorf("gemm: M must be multiple of 8 and N of 16, got %+v", s)
	}
	return nil
}

// kernelWorkload finalizes a kernel program: it measures the exact dynamic
// instruction count functionally and, for two-pass kernels, sets the
// measurement window to the second (warm) pass — Fig. 5's methodology of
// averaging steady-state windows rather than cold execution.
func kernelWorkload(name string, p *isa.Program, twoPass bool) (*Workload, error) {
	vm := isa.NewVM(p)
	n, err := vm.Run(1<<26, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !vm.Halted() {
		return nil, fmt.Errorf("%s: did not halt while sizing", name)
	}
	w := &Workload{Name: name, Category: CatKernel, Prog: p, Weight: 1, Budget: n}
	if twoPass {
		w.Warmup = n / 2
	}
	return w, nil
}

// Register allocation conventions shared by the GEMM builders.
var (
	rI0     = isa.GPR(1)  // row block index i0
	rJ0     = isa.GPR(2)  // col block index j0
	rK      = isa.GPR(3)  // k counter
	rPA     = isa.GPR(4)  // A panel pointer
	rPB     = isa.GPR(5)  // B panel pointer
	rPC     = isa.GPR(6)  // C row pointer
	rM      = isa.GPR(7)  // M limit
	rN      = isa.GPR(8)  // N limit
	rKlim   = isa.GPR(9)  // K-step limit
	rSA     = isa.GPR(10) // A k-step stride
	rSB     = isa.GPR(11) // B k-step stride, and C's row stride
	rT0     = isa.GPR(12)
	rPass   = isa.GPR(30) // pass counter
	rPasses = isa.GPR(31) // pass limit
)

// gemmCoding is one coding of the blocked GEMM micro-kernel: everything
// that differs between the VSU and MMA codings of DGEMM and SGEMM and the
// INT8 MMA kernel. A block is rows x 16 columns of C; each k-step reads
// kStep elements of K from every row of A and every column of B, so a
// k-step of one row or column spans width*kStep bytes, and a 16-column row
// of B spans that many 16-byte vectors.
type gemmCoding struct {
	name  string
	width int  // bytes per A and B element: 8 fp64, 4 fp32, 1 int8
	rows  int  // rows of C per block
	kStep int  // K elements per step (4 for xvi8ger4)
	mma   bool // accumulate in the eight MMA accumulators, not in VSRs
	// hoist loads the limits once, before the two passes. The SGEMM
	// kernels reload them at the top of each pass, which is the emission
	// their AI layers share.
	hoist bool
	loadA func(b *isa.Builder, dst, base isa.Reg, disp int64) *isa.Builder
	acc   func(b *isa.Builder, acc, a, rb isa.Reg) *isa.Builder
}

// The five codings. The VSU ones splat one row of A per VSR and keep a
// block's 32 accumulators in vs16..vs47; the MMA ones load four rows of A
// per vector (DGEMM as one lxvp pair) into outer products on all eight
// accumulators.
var (
	dgemmVSU = gemmCoding{name: "dgemm-vsu", width: 8, rows: 4, kStep: 1, hoist: true,
		loadA: (*isa.Builder).Lxvdsx, acc: (*isa.Builder).Xvmaddadp}
	dgemmMMA = gemmCoding{name: "dgemm-mma", width: 8, rows: 4, kStep: 1, mma: true, hoist: true,
		loadA: (*isa.Builder).Lxvp, acc: (*isa.Builder).Xvf64gerpp}
	sgemmVSU = gemmCoding{name: "sgemm-vsu", width: 4, rows: 8, kStep: 1,
		loadA: (*isa.Builder).Lxvwsx, acc: (*isa.Builder).Xvmaddasp}
	sgemmMMA = gemmCoding{name: "sgemm-mma", width: 4, rows: 8, kStep: 1, mma: true,
		loadA: (*isa.Builder).Lxv, acc: (*isa.Builder).Xvf32gerpp}
	int8MMA = gemmCoding{name: "gemm-int8-mma", width: 1, rows: 8, kStep: 4, mma: true, hoist: true,
		loadA: (*isa.Builder).Lxv, acc: (*isa.Builder).Xvi8ger4pp}
)

// gemmBases names the memory regions one GEMM call works over.
type gemmBases struct{ at, b, c uint64 }

// limits loads the loop limits and k-step strides for a GEMM of size s.
func (g *gemmCoding) limits(b *isa.Builder, s GEMMSize) {
	step := int64(g.width * g.kStep)
	b.Li(rM, int64(s.M))
	b.Li(rN, int64(s.N))
	b.Li(rKlim, int64(s.K/g.kStep))
	b.Li(rSA, int64(s.M)*step)
	b.Li(rSB, int64(s.N)*step)
}

// loop emits the blocked i/j/k triple loop (no Halt) over the regions in
// bases, after limits. Labels are prefixed so several GEMMs can share one
// program. C's elements are as wide as a k-step of A's (an int8 step of
// four bytes accumulates into one int32).
func (g *gemmCoding) loop(b *isa.Builder, bases gemmBases, prefix string) {
	step := g.width * g.kStep
	shift := int64(bits.TrailingZeros(uint(step)))
	cols := step // B vectors per block row
	// VSU: one row per A splat and per accumulator, B's vectors right
	// after the splats. MMA: four rows per A vector and per accumulator,
	// B's vectors from vs4.
	perAcc, bBase := 1, g.rows
	if g.mma {
		perAcc, bBase = 4, 4
	}
	nA := g.rows / perAcc
	acc := func(i int) isa.Reg {
		if g.mma {
			return isa.ACC(i)
		}
		return isa.VSR(16 + i)
	}

	b.Li(rI0, 0)
	b.Label(prefix + "iloop")
	b.Li(rJ0, 0)
	b.Label(prefix + "jloop")
	for i := 0; i < nA*cols; i++ {
		if g.mma {
			b.Xxsetaccz(acc(i))
		} else {
			b.Xxlxor(acc(i), acc(i), acc(i))
		}
	}
	b.Shl(rT0, rI0, shift)
	b.Addi(rPA, rT0, int64(bases.at))
	b.Shl(rT0, rJ0, shift)
	b.Addi(rPB, rT0, int64(bases.b))
	b.Li(rK, 0)
	b.Label(prefix + "kloop")
	for a := 0; a < nA; a++ {
		g.loadA(b, isa.VSR(a), rPA, int64(a*perAcc*step))
	}
	for c := 0; c < cols; c++ {
		b.Lxv(isa.VSR(bBase+c), rPB, int64(c*16))
	}
	for a := 0; a < nA; a++ {
		for c := 0; c < cols; c++ {
			g.acc(b, acc(a*cols+c), isa.VSR(a), isa.VSR(bBase+c))
		}
	}
	b.Add(rPA, rPA, rSA)
	b.Add(rPB, rPB, rSB)
	b.Addi(rK, rK, 1)
	b.Bc(isa.CondLT, rK, rKlim, prefix+"kloop")
	// Store the block: ptrC = C + (i0*N + j0)*step, row stride rSB. An MMA
	// accumulator reads out to four VSRs from vs16, one per row.
	b.Mul(rT0, rI0, rN)
	b.Add(rT0, rT0, rJ0)
	b.Shl(rT0, rT0, shift)
	b.Addi(rPC, rT0, int64(bases.c))
	if g.mma {
		for i := 0; i < nA*cols; i++ {
			b.Xxmfacc(isa.VSR(16+4*i), acc(i))
		}
	}
	for r := 0; r < g.rows; r++ {
		a, rr := r/perAcc, r%perAcc
		for c := 0; c < cols; c++ {
			b.Stxv(isa.VSR(16+perAcc*(a*cols+c)+rr), rPC, int64(c*16))
		}
		b.Add(rPC, rPC, rSB)
	}
	b.Addi(rJ0, rJ0, 16)
	b.Bc(isa.CondLT, rJ0, rN, prefix+"jloop")
	b.Addi(rI0, rI0, int64(g.rows))
	b.Bc(isa.CondLT, rI0, rM, prefix+"iloop")
}

// kernel builds the coding's standalone kernel over img: the GEMM run twice,
// so that kernelWorkload can measure the second, warm pass.
func (g *gemmCoding) kernel(name string, s GEMMSize, img map[uint64][]byte) (*Workload, error) {
	b := isa.NewBuilder(name)
	for addr, data := range img {
		b.SetMem(addr, data)
	}
	if g.mma {
		b.MMAWake() // proactive power-on hint before the compute region
	}
	if g.hoist {
		g.limits(b, s)
	}
	b.Li(rPass, 0)
	b.Li(rPasses, 2)
	b.Label("pass")
	if !g.hoist {
		g.limits(b, s)
	}
	g.loop(b, gemmBases{at: addrAt, b: addrB, c: addrC}, "")
	b.Addi(rPass, rPass, 1)
	b.Bc(isa.CondLT, rPass, rPasses, "pass")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return kernelWorkload(name, p, true)
}

// floatGEMM builds the coding's kernel, named name, over row-major A (MxK)
// and B (KxN), laid out at the GEMM base addresses with a zeroed C, and
// returns it with the reference product.
func floatGEMM[T float32 | float64](g *gemmCoding, name string, s GEMMSize, a, bm []T) (*Workload, []T, error) {
	at := make([]T, s.K*s.M)
	for i := 0; i < s.M; i++ {
		for k := 0; k < s.K; k++ {
			at[k*s.M+i] = a[i*s.K+k]
		}
	}
	ref := make([]T, s.M*s.N)
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			var sum T
			for k := 0; k < s.K; k++ {
				sum += a[i*s.K+k] * bm[k*s.N+j]
			}
			ref[i*s.N+j] = sum
		}
	}
	img := map[uint64][]byte{addrAt: floatBytes(at), addrB: floatBytes(bm), addrC: floatBytes(make([]T, s.M*s.N))}
	w, err := g.kernel(name, s, img)
	if err != nil {
		return nil, nil, err
	}
	return w, ref, nil
}

// randomGEMM is floatGEMM over pseudo-random operands drawn from seed, under
// the coding's own name.
func randomGEMM[T float32 | float64](g *gemmCoding, s GEMMSize, seed uint64) (*Workload, []T, error) {
	if err := s.Valid(); err != nil {
		return nil, nil, err
	}
	rng := newLCG(seed)
	a := make([]T, s.M*s.K) // logical A[i][k]
	bm := make([]T, s.K*s.N)
	for i := range a {
		a[i] = T(rng.f64())
	}
	for i := range bm {
		bm[i] = T(rng.f64())
	}
	return floatGEMM(g, g.name, s, a, bm)
}

// floatBytes serializes fp64 or fp32 values little-endian.
func floatBytes[T float32 | float64](vals []T) []byte {
	if f, ok := any(vals).([]float32); ok {
		return F32Bytes(f)
	}
	return F64Bytes(any(vals).([]float64))
}

// DGEMMVSU builds the vector (VSU) coding of double-precision GEMM: a
// 4-row x 16-column micro-kernel with 32 vector accumulators, splat loads of
// A and streaming loads of B — the "POWER9 VSU code" of Fig. 5.
func DGEMMVSU(s GEMMSize) (*Workload, []float64, error) {
	return randomGEMM[float64](&dgemmVSU, s, 1)
}

// DGEMMMMA builds the MMA coding of double-precision GEMM: a 4-row x
// 16-column micro-kernel on all eight 512-bit accumulators fed by paired
// vector loads — the "POWER10 MMA code" of Fig. 5.
func DGEMMMMA(s GEMMSize) (*Workload, []float64, error) {
	return randomGEMM[float64](&dgemmMMA, s, 1)
}

// DGEMMMMAFrom builds the MMA DGEMM kernel over caller-supplied row-major
// matrices — the entry point higher-level computations (convolution, DFT)
// lower themselves onto, per the paper's "MMA instructions as building
// blocks" discussion.
func DGEMMMMAFrom(name string, s GEMMSize, a, bm []float64) (*Workload, []float64, error) {
	if err := s.Valid(); err != nil {
		return nil, nil, err
	}
	if len(a) != s.M*s.K || len(bm) != s.K*s.N {
		return nil, nil, fmt.Errorf("%s: operand sizes %d/%d do not match %+v", name, len(a), len(bm), s)
	}
	return floatGEMM(&dgemmMMA, name, s, a, bm)
}

// SGEMMVSU builds the standalone fp32 vector kernel workload: an 8-row x
// 16-column micro-kernel with 32 accumulators of 4 float lanes each.
func SGEMMVSU(s GEMMSize) (*Workload, []float32, error) {
	return randomGEMM[float32](&sgemmVSU, s, 2)
}

// SGEMMMMA builds the standalone fp32 MMA kernel workload: 8x16 SGEMM
// panels on all eight accumulators — matching the paper's "8x16 SGEMM
// panels on the MMA".
func SGEMMMMA(s GEMMSize) (*Workload, []float32, error) {
	return randomGEMM[float32](&sgemmMMA, s, 2)
}

// GEMMInt8MMA builds an INT8 outer-product GEMM (xvi8ger4) used for the
// paper's 21x INT8 inference projection. Numerical content is synthetic; the
// kernel reproduces the instruction shape.
func GEMMInt8MMA(s GEMMSize) (*Workload, error) {
	if err := s.Valid(); err != nil {
		return nil, err
	}
	if s.K%4 != 0 {
		return nil, fmt.Errorf("int8 gemm: K must be multiple of 4")
	}
	rng := newLCG(3)
	bufA := make([]uint64, s.K*s.M/8+16)
	bufB := make([]uint64, s.K*s.N/8+16)
	for i := range bufA {
		bufA[i] = rng.next()
	}
	for i := range bufB {
		bufB[i] = rng.next()
	}
	return int8MMA.kernel(int8MMA.name, s, map[uint64][]byte{addrAt: U64Bytes(bufA), addrB: U64Bytes(bufB)})
}

// Daxpy builds the classic y += a*x streaming kernel over n doubles
// (n multiple of 4), one of the paper's well-known code kernels.
func Daxpy(n int, iters int) *Workload {
	if n%4 != 0 {
		panic("daxpy: n must be multiple of 4")
	}
	rng := newLCG(4)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.f64(), rng.f64()
	}
	b := isa.NewBuilder("daxpy")
	b.SetMem(addrX, F64Bytes(x))
	b.SetMem(addrY, F64Bytes(y))
	b.SetMem(addrC, F64Bytes([]float64{2.5}))
	b.Li(isa.GPR(1), addrC)
	b.Lxvdsx(isa.VSR(0), isa.GPR(1), 0) // splat a
	b.Li(isa.GPR(20), int64(iters))
	b.Li(isa.GPR(21), 0)
	b.Label("outer")
	b.Li(rPA, addrX)
	b.Li(rPB, addrY)
	b.Li(rK, 0)
	b.Li(rKlim, int64(n/4))
	b.Label("top")
	b.Lxv(isa.VSR(1), rPA, 0)
	b.Lxv(isa.VSR(2), rPA, 16)
	b.Lxv(isa.VSR(3), rPB, 0)
	b.Lxv(isa.VSR(4), rPB, 16)
	b.Xvmaddadp(isa.VSR(3), isa.VSR(0), isa.VSR(1))
	b.Xvmaddadp(isa.VSR(4), isa.VSR(0), isa.VSR(2))
	b.Stxv(isa.VSR(3), rPB, 0)
	b.Stxv(isa.VSR(4), rPB, 16)
	b.Addi(rPA, rPA, 32)
	b.Addi(rPB, rPB, 32)
	b.Addi(rK, rK, 1)
	b.Bc(isa.CondLT, rK, rKlim, "top")
	b.Addi(isa.GPR(21), isa.GPR(21), 1)
	b.Bc(isa.CondLT, isa.GPR(21), isa.GPR(20), "outer")
	b.Halt()
	w, err := kernelWorkload("daxpy", b.MustBuild(), true)
	if err != nil {
		panic(err)
	}
	return w
}
