// Package power is the Einspower analog: it converts the latch-model
// switching statistics and timing-simulator activity counters into power
// reports with separable latch-clock, logic data-switching, array and
// register-file components plus leakage and active-idle — the decomposition
// the paper's pipeline-depth study and counter-model flows rely on.
//
// Power is reported in arbitrary "core power units" normalized so that the
// POWER9 configuration lands near 1.0 on the SPECint-like suite at nominal
// voltage and frequency; every paper comparison is a ratio.
package power

import (
	"slices"
	"strings"

	"power10sim/internal/isa"
	"power10sim/internal/rtl"
	"power10sim/internal/uarch"
)

// Component indices into ComponentNames and Report.Components.
const (
	ifuL1IArray = iota
	ifuFetchLatch
	ifuPredecode
	ifuIERAT
	bruDirArray
	bruBTBArray
	bruIndirArray
	bruPipe
	iduDecode
	iduFusion
	iduDispatch
	renameMap
	issqWake
	issqData
	regfileRead
	regfileWrite
	fxuALU
	fxuMulDiv
	vsuFMA
	vsuSimple
	mmaGrid
	mmaAcc
	mmaMove
	lsuL1DArray
	lsuLQ
	lsuSQ
	lsuAgen
	lsuPrefetch
	mmuDERAT
	mmuTLB
	mmuWalk
	l2Tag
	l2Data
	l3
	membus
	cplTable
	cplRetire
	clockGrid
	pcu
	numComponents
)

var componentNames = [numComponents]string{
	ifuL1IArray: "ifu-l1i-array", ifuFetchLatch: "ifu-fetch-latch", ifuPredecode: "ifu-predecode", ifuIERAT: "ifu-ierat",
	bruDirArray: "bru-dir-array", bruBTBArray: "bru-btb-array", bruIndirArray: "bru-indir-array", bruPipe: "bru-pipe",
	iduDecode: "idu-decode", iduFusion: "idu-fusion", iduDispatch: "idu-dispatch",
	renameMap: "rename-map",
	issqWake:  "issq-wake", issqData: "issq-data",
	regfileRead: "regfile-read", regfileWrite: "regfile-write",
	fxuALU: "fxu-alu", fxuMulDiv: "fxu-muldiv",
	vsuFMA: "vsu-fma", vsuSimple: "vsu-simple",
	mmaGrid: "mma-grid", mmaAcc: "mma-acc", mmaMove: "mma-move",
	lsuL1DArray: "lsu-l1d-array", lsuLQ: "lsu-lq", lsuSQ: "lsu-sq", lsuAgen: "lsu-agen", lsuPrefetch: "lsu-prefetch",
	mmuDERAT: "mmu-derat", mmuTLB: "mmu-tlb", mmuWalk: "mmu-walk",
	l2Tag: "l2-tag", l2Data: "l2-data", l3: "l3",
	membus:   "membus",
	cplTable: "cpl-table", cplRetire: "cpl-retire",
	clockGrid: "clock-grid", pcu: "pcu",
}

// ComponentNames lists the 39 macro components of the bottom-up power
// breakdown (Section III-D).
var ComponentNames = componentNames[:]

// NumComponents is the bottom-up component count.
var NumComponents = len(ComponentNames)

// unitComponent books each unit's latch clock and latch leakage.
var unitComponent = [uarch.NumUnits]int{
	uarch.UnitFetch: ifuFetchLatch, uarch.UnitBPred: bruPipe,
	uarch.UnitDecode: iduDecode, uarch.UnitRename: renameMap,
	uarch.UnitIssue: issqData, uarch.UnitFXU: fxuALU,
	uarch.UnitVSU: vsuFMA, uarch.UnitMMA: mmaGrid,
	uarch.UnitLSU: lsuAgen, uarch.UnitMMU: mmuDERAT,
	uarch.UnitL2: l2Tag, uarch.UnitCompletion: cplTable,
}

// Float accumulation order must be deterministic (the experiment runner
// memoizes reports and asserts bit-identical reruns), so each category's
// components are summed in sorted-name order. switchingOrder and arrayOrder
// hold that order for the components each category charges; a
// configuration without an indirect predictor or an L3 drops those two
// from its array order (Model.arrayOrder).
var (
	switchingOrder = byName(iduDecode, iduFusion, iduDispatch, renameMap, issqData, issqWake,
		regfileRead, regfileWrite, fxuALU, fxuMulDiv, vsuSimple, vsuFMA, mmaGrid, mmaMove,
		lsuAgen, lsuLQ, lsuSQ, lsuPrefetch, cplTable, cplRetire, mmuWalk, pcu)
	arrayOrder = byName(ifuL1IArray, ifuPredecode, ifuIERAT, bruDirArray, bruBTBArray, bruIndirArray,
		lsuL1DArray, mmuDERAT, mmuTLB, l2Tag, l2Data, l3, membus, regfileRead, regfileWrite, mmaAcc)
)

// bitComponent books each rtl.ArrayBits array's bit leakage.
var bitComponent = map[string]int{
	"l1i": ifuL1IArray, "l1d": lsuL1DArray, "l2": l2Data, "l3": l3,
	"tlb": mmuTLB, "bpred": bruDirArray, "regfile": regfileRead,
}

// byName returns component indices sorted by component name.
func byName(cs ...int) []int {
	slices.SortFunc(cs, func(a, b int) int { return strings.Compare(componentNames[a], componentNames[b]) })
	return cs
}

// Report is the power breakdown for one workload run.
type Report struct {
	Total float64
	// Decomposition (Einspower categories).
	Clock     float64 // latch clock + clock grid
	Switching float64 // logic data switching (incl. ghost)
	Array     float64 // SRAM arrays and register files
	Leakage   float64
	// ActiveIdle is the workload-independent floor included in Total.
	ActiveIdle float64
	// Components is the 39-way bottom-up breakdown (same order as
	// ComponentNames); the categories above are its marginals.
	Components []float64
	// EffCap is the effective-capacitance proxy (dynamic power at nominal
	// V/F) used by the WOF flow.
	EffCap float64
	// Ghost is the share of Switching attributed to ghost switching.
	Ghost float64
}

// Component returns a named component's power.
func (r *Report) Component(name string) float64 {
	for i, n := range ComponentNames {
		if n == name {
			return r.Components[i]
		}
	}
	return 0
}

// Model computes power for one core configuration. Cfg and Latch are
// read-only once NewModel returns: the model's tables are derived from them.
// Report is read-only on the model, so one model may serve many goroutines.
type Model struct {
	Cfg   *uarch.Config
	Latch *rtl.LatchModel

	// impl is the implementation-efficiency factor covering the paper's
	// circuit/physical-design work (CSA restructuring, pass-gate "sum"
	// circuits, wiring optimization): relative dynamic energy per event.
	impl float64
	// vsuImpl is the additional FP/vector-datapath factor: Section II-B
	// reports the CSA restructuring and "sum" pass-gate circuits alone
	// yielded >40% FP-unit power reduction on a prior product, with further
	// gains on POWER10.
	vsuImpl float64
	// implLeak scales leakage per latch/bit.
	implLeak float64

	// The activity-independent part of a report, fixed by the
	// configuration.
	arrayOrder []int                   // arrayOrder less the arrays this core lacks
	access     accessEnergy            // per-access array energies
	unitLeak   [uarch.NumUnits]float64 // latch leakage per unit, before MMA gating
	bitLeak    []componentPower        // array-bit leakage, in rtl.ArrayBits order
	idleLatch  float64                 // clock gating leaves on idle functional latches
}

// accessEnergy holds the array access energies Report charges per access:
// the arrE values include kArray, the others are bare rtl.AccessEnergy.
type accessEnergy struct {
	l1iArrE, l1dArrE, l2ArrE          float64
	dir, btb, indir, tlb, l3, regfile float64
}

// componentPower is a fixed power booked to one component.
type componentPower struct {
	comp int
	p    float64
}

// Per-event energy coefficients (arbitrary units). Shared by both
// generations; generation differences come from structure sizes, activity,
// gating, ghost factors and the implementation factor.
const (
	eDecodeSlot = 3.0
	eFusion     = 1.1
	eDispatch   = 2.3
	eRename     = 2.6
	eIQWrite    = 2.0
	eRSWake     = 0.40
	eRegRead    = 1.2
	eRegWrite   = 1.8
	eIntOp      = 2.2
	eMulOp      = 4.5
	eDivOp      = 12.0
	eBranchOp   = 1.6
	eVSXALU     = 6.0
	eVSXFP      = 9.5
	eVSXFMA     = 13.5
	eMMAGer     = 30.0 // 16 DP flops with local accumulation
	eMMAMove    = 8.0
	eAgen       = 2.8
	eLQ         = 1.3
	eSQ         = 1.6
	ePrefetch   = 3.0
	eCplOp      = 1.3
	eRetire     = 0.9
	eWalk       = 26.0

	kArray   = 1.25 // scale on rtl.AccessEnergy
	kERATCam = 5.2  // CAM lookup cost per translation
	kTLB     = 1.15

	cClkLatch  = 0.00115 // clock power per latch per enabled cycle
	cClkGrid   = 22.0    // global clock distribution
	cGhost     = 9e-6    // ghost switching per latch-toggle
	cLeakLatch = 6.5e-5
	cLeakBit   = 5.2e-9
	cPCU       = 1.4

	// mmaGatedLeak is the residual leakage fraction of a power-gated MMA.
	mmaGatedLeak = 0.05

	// globalScale normalizes POWER9 SPECint core power near 1.0.
	globalScale = 1.0 / 150.0
)

// NewModel builds the power model for a configuration.
func NewModel(cfg *uarch.Config) *Model {
	m := &Model{Cfg: cfg, Latch: rtl.NewLatchModel(cfg), impl: 1.0, vsuImpl: 1.0, implLeak: 1.0}
	if cfg.EATaggedL1 && !cfg.ReservationStations {
		// POWER10 implementation: circuit-level and physical-design
		// efficiency gains (Section II-B's FP-unit CSA work and friends).
		m.impl = 0.65
		m.vsuImpl = 0.45
		m.implLeak = 0.70
	}
	if cfg.CircuitGrade > 0 {
		// Explicit implementation grade (future-work studies).
		m.impl = cfg.CircuitGrade
		m.vsuImpl = cfg.CircuitGrade * 0.7
		m.implLeak = cfg.CircuitGrade + 0.05
	}

	bits := rtl.ArrayBits(cfg)
	bitOf := func(name string) int {
		for _, b := range bits {
			if b.Name == name {
				return b.Bits
			}
		}
		return 0
	}
	arrE := func(name string) float64 { return kArray * rtl.AccessEnergy(bitOf(name)) }
	m.access = accessEnergy{
		l1iArrE: arrE("l1i"), l1dArrE: arrE("l1d"), l2ArrE: arrE("l2"),
		dir:     rtl.AccessEnergy(cfg.BPred.DirEntries*2 + cfg.BPred.SecondEntries*14),
		btb:     rtl.AccessEnergy(cfg.BPred.BTBEntries * 60),
		indir:   rtl.AccessEnergy(cfg.BPred.IndirEntries * 60),
		tlb:     rtl.AccessEnergy(bitOf("tlb")),
		l3:      rtl.AccessEnergy(bitOf("l3")),
		regfile: rtl.AccessEnergy(bitOf("regfile")),
	}
	m.arrayOrder = slices.DeleteFunc(slices.Clone(arrayOrder), func(c int) bool {
		return (c == bruIndirArray && cfg.BPred.IndirEntries <= 0) || (c == l3 && bitOf("l3") <= 0)
	})

	var latchByUnit [uarch.NumUnits]float64
	for _, b := range m.Latch.Buckets {
		latchByUnit[b.Unit] += float64(b.Latches)
		if !b.Config && b.Weight > 0 {
			m.idleLatch += float64(b.Latches) * (1 - m.Latch.GatingEff) * cClkLatch
		}
	}
	for u, n := range latchByUnit {
		m.unitLeak[u] = n * cLeakLatch * m.implLeak
	}
	m.bitLeak = make([]componentPower, len(bits))
	for i, b := range bits {
		m.bitLeak[i] = componentPower{bitComponent[b.Name], float64(b.Bits) * cLeakBit * m.implLeak}
	}
	return m
}

// Report computes the power breakdown for a workload's activity. Each
// category sums its components in sorted-name order, and each component
// adds its clock, switching, array and leakage shares in that order, so a
// report is bit-identical on every run.
func (m *Model) Report(a *uarch.Activity) *Report {
	cfg := m.Cfg
	cyc := float64(a.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	rate := func(v uint64) float64 { return float64(v) / cyc }
	comp := make([]float64, numComponents)

	lstats := m.Latch.Analyze(a)

	// --- Clock: latch clocks per unit + global grid. ---
	var unitClock [uarch.NumUnits]float64
	for i, b := range m.Latch.Buckets {
		unitClock[b.Unit] += float64(b.Latches) * lstats.BucketUtil[i] * cClkLatch
	}
	var clock float64
	for u, p := range unitClock {
		p *= m.impl
		clock += p
		comp[unitComponent[u]] += p
	}
	gridP := cClkGrid * m.impl
	clock += gridP
	comp[clockGrid] += gridP

	// --- Switching: per-event logic energies. ---
	var sw [numComponents]float64
	sw[iduDecode] = rate(a.DecodeSlots) * eDecodeSlot
	sw[iduFusion] = rate(a.FusedPairs) * eFusion
	sw[iduDispatch] = rate(a.InternalOps) * eDispatch
	sw[renameMap] = rate(a.RenameOps) * eRename
	sw[issqData] = rate(a.IssueQueueWrites) * eIQWrite
	sw[issqWake] = rate(a.RSWakeups) * eRSWake
	sw[regfileRead] = rate(a.RegReads) * eRegRead
	sw[regfileWrite] = rate(a.RegWrites) * eRegWrite
	rc := func(c isa.Class) float64 { return rate(a.IssueByClass[c]) }
	sw[fxuALU] = (rc(isa.ClassIntALU) + rc(isa.ClassNop) + rc(isa.ClassSystem)) * eIntOp
	sw[fxuALU] += (rc(isa.ClassBranch) + rc(isa.ClassCondBranch) + rc(isa.ClassIndirBranch)) * eBranchOp
	sw[fxuMulDiv] = rc(isa.ClassIntMul)*eMulOp + rc(isa.ClassIntDiv)*eDivOp
	sw[vsuSimple] = (rc(isa.ClassVSXALU)*eVSXALU + rc(isa.ClassVSXFP)*eVSXFP) * m.vsuImpl
	sw[vsuFMA] = rc(isa.ClassVSXFMA) * eVSXFMA * m.vsuImpl
	sw[mmaGrid] = rate(a.MMAOps) * eMMAGer
	sw[mmaMove] = rate(a.MMAMoves) * eMMAMove
	loads := rc(isa.ClassLoad) + rc(isa.ClassVSXLoad) + rc(isa.ClassVSXPairLoad)
	stores := rc(isa.ClassStore) + rc(isa.ClassVSXStore) + rc(isa.ClassVSXPairStore)
	sw[lsuAgen] = (loads + stores) * eAgen
	sw[lsuLQ] = rate(a.LQAllocs) * eLQ
	sw[lsuSQ] = rate(a.SQAllocs) * eSQ
	sw[lsuPrefetch] = rate(a.Prefetches) * ePrefetch
	sw[cplTable] = rate(a.InternalOps) * eCplOp
	sw[cplRetire] = rate(a.Instructions) * eRetire
	sw[mmuWalk] = rate(a.TLBMisses) * eWalk
	sw[pcu] = cPCU

	var switching float64
	for _, c := range switchingOrder {
		p := sw[c] * m.impl
		switching += p
		comp[c] += p
	}
	// Ghost switching: charged against the datapath latch population.
	ghost := lstats.GhostSwitchRatio * float64(lstats.TotalLatches) * cGhost * m.impl
	switching += ghost
	comp[iduDispatch] += ghost // distributed; book under dispatch datapath

	// --- Arrays. ---
	e := &m.access
	var ar [numComponents]float64
	ar[ifuL1IArray] = rate(a.ICacheAccesses) * e.l1iArrE
	ar[ifuPredecode] = rate(a.FetchSlots+a.WrongPathSlots) * 0.6
	ar[ifuIERAT] = rate(a.IERATLookups) * kERATCam
	ar[bruDirArray] = rate(a.BranchObserved) * kArray * e.dir
	ar[bruBTBArray] = rate(a.BranchObserved) * kArray * e.btb
	ar[bruIndirArray] = rate(a.BranchObserved) * kArray * e.indir * 0.3
	ar[lsuL1DArray] = rate(a.L1DAccesses) * e.l1dArrE
	ar[mmuDERAT] = rate(a.DERATLookups) * kERATCam
	ar[mmuTLB] = rate(a.TLBLookups) * kTLB * e.tlb
	ar[l2Tag] = rate(a.L2Accesses) * 2.2
	ar[l2Data] = rate(a.L2Accesses) * e.l2ArrE * 0.5
	ar[l3] = rate(a.L3Accesses) * kArray * e.l3 * 0.4
	ar[membus] = rate(a.MemAccesses) * 95.0
	// Register-file array energy (beyond port logic).
	ar[regfileRead] = rate(a.RegReads) * kArray * e.regfile * 0.25
	ar[regfileWrite] = rate(a.RegWrites) * kArray * e.regfile * 0.35
	// MMA accumulator file: local, cheap, only when active.
	ar[mmaAcc] = rate(a.MMAOps+a.MMAMoves) * 2.0

	var array float64
	for _, c := range m.arrayOrder {
		p := ar[c] * m.impl
		array += p
		comp[c] += p
	}

	// --- Leakage. ---
	var leak float64
	for u, l := range m.unitLeak {
		if uarch.Unit(u) == uarch.UnitMMA && cfg.HasMMA {
			// The decoupled MMA power-gates when idle (Section IV-A).
			duty := 0.0
			if a.Cycles > 0 {
				duty = float64(a.MMAActiveCycles) / float64(a.Cycles)
				if duty > 1 {
					duty = 1
				}
			}
			l = l * (mmaGatedLeak + (1-mmaGatedLeak)*duty)
		}
		leak += l
		comp[unitComponent[u]] += l
	}
	for _, b := range m.bitLeak {
		leak += b.p
		comp[b.comp] += b.p
	}

	total := clock + switching + array + leak
	rep := &Report{
		Clock:      clock * globalScale,
		Switching:  switching * globalScale,
		Array:      array * globalScale,
		Leakage:    leak * globalScale,
		Total:      total * globalScale,
		Ghost:      ghost * globalScale,
		Components: comp,
		EffCap:     (clock + switching + array) * globalScale,
	}
	for i := range rep.Components {
		rep.Components[i] *= globalScale
	}
	// Active idle: the floor with no instruction activity (grid + gated
	// latch residue + leakage + PCU).
	rep.ActiveIdle = (m.idleLatch*m.impl + gridP + cPCU*m.impl + leak) * globalScale
	return rep
}
