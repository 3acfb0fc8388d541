package uarch

import "power10sim/internal/isa"

// Unit identifies a major core block for busy/idle (clock gating) accounting.
type Unit int

// Core units tracked for clock-gating and power accounting.
const (
	UnitFetch Unit = iota
	UnitBPred
	UnitDecode
	UnitRename
	UnitIssue
	UnitFXU // scalar integer execution
	UnitVSU // 128-bit SIMD execution
	UnitMMA // matrix-multiply assist
	UnitLSU // load/store pipes + queues
	UnitMMU // ERAT/TLB
	UnitL2
	UnitCompletion
	NumUnits
)

var unitNames = [...]string{
	"IFU", "BRU-pred", "IDU", "rename", "issue", "FXU", "VSU", "MMA",
	"LSU", "MMU", "L2", "completion",
}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return "unit(?)"
}

// Activity is the full set of event counters one simulation produces. It is
// the interface between the timing model and the RTL-latch/power models, and
// the source of the "performance counter" features used by the counter-based
// power models and the Tracepoints methodology.
type Activity struct {
	Cycles       uint64
	Instructions uint64 // architecturally retired
	InternalOps  uint64 // post-fusion internal operations retired
	PerThread    [8]uint64
	Flops        uint64
	IntMACs      uint64

	// Front end.
	FetchSlots        uint64 // correct-path instructions fetched
	WrongPathSlots    uint64 // wasted fetch slots on mispredicted paths
	FlushedInsts      uint64 // estimated wrong-path instructions squashed
	FetchStallCycles  uint64
	ICacheAccesses    uint64
	ICacheMisses      uint64
	IERATLookups      uint64
	BranchObserved    uint64
	BranchMispredicts uint64
	SecondPredHits    uint64

	// Decode / rename / dispatch.
	DecodeSlots         uint64
	FusedPairs          uint64
	RenameOps           uint64
	DispatchStallCycles uint64
	DispatchStallROB    uint64
	DispatchStallIQ     uint64
	DispatchStallLSQ    uint64

	// Issue / execute.
	IssueByClass     [isa.NumClasses]uint64
	IssueQueueWrites uint64
	RSWakeups        uint64 // reservation-station CAM compare events (P9 style)
	RegReads         uint64
	RegWrites        uint64

	// LSU / MMU.
	L1DAccesses   uint64
	L1DMisses     uint64
	L2Accesses    uint64
	L2Misses      uint64
	L3Accesses    uint64
	L3Misses      uint64
	MemAccesses   uint64
	DERATLookups  uint64
	TLBLookups    uint64
	TLBMisses     uint64
	LQAllocs      uint64
	SQAllocs      uint64
	SQGathered    uint64 // store-queue entries retired via gathering/fusion
	StoreForwards uint64 // loads satisfied by store-to-load forwarding
	LMQFull       uint64
	Prefetches    uint64

	// MMA.
	MMAOps          uint64
	MMAMoves        uint64
	MMAActiveCycles uint64

	// Per-unit busy cycles (a unit not busy in a cycle is clock-gate
	// eligible that cycle).
	UnitBusy [NumUnits]uint64
}

// VectorLen is the number of counters in an Activity: 45 scalars plus the
// PerThread, IssueByClass and UnitBusy arrays. Vector and SetVector use it.
const VectorLen = 45 + 8 + isa.NumClasses + int(NumUnits)

// counters returns a pointer to each of a's counters in declaration order,
// array elements in index order. It is the one list of Activity's layout:
// Sub, Vector and SetVector loop over it, and a reflection test pins it to
// the struct, so a field added without a line here fails that test.
func (a *Activity) counters() (c [VectorLen]*uint64) {
	// Every store is to c directly: a store through a pointer or from a
	// closure would move a, and so Sub's copy, to the heap.
	n := 0
	for _, p := range [...]*uint64{&a.Cycles, &a.Instructions, &a.InternalOps} {
		c[n], n = p, n+1
	}
	for i := range a.PerThread {
		c[n], n = &a.PerThread[i], n+1
	}
	for _, p := range [...]*uint64{&a.Flops, &a.IntMACs,
		&a.FetchSlots, &a.WrongPathSlots, &a.FlushedInsts, &a.FetchStallCycles,
		&a.ICacheAccesses, &a.ICacheMisses, &a.IERATLookups, &a.BranchObserved,
		&a.BranchMispredicts, &a.SecondPredHits,
		&a.DecodeSlots, &a.FusedPairs, &a.RenameOps, &a.DispatchStallCycles,
		&a.DispatchStallROB, &a.DispatchStallIQ, &a.DispatchStallLSQ} {
		c[n], n = p, n+1
	}
	for i := range a.IssueByClass {
		c[n], n = &a.IssueByClass[i], n+1
	}
	for _, p := range [...]*uint64{&a.IssueQueueWrites, &a.RSWakeups, &a.RegReads, &a.RegWrites,
		&a.L1DAccesses, &a.L1DMisses, &a.L2Accesses, &a.L2Misses,
		&a.L3Accesses, &a.L3Misses, &a.MemAccesses, &a.DERATLookups,
		&a.TLBLookups, &a.TLBMisses, &a.LQAllocs, &a.SQAllocs,
		&a.SQGathered, &a.StoreForwards, &a.LMQFull, &a.Prefetches,
		&a.MMAOps, &a.MMAMoves, &a.MMAActiveCycles} {
		c[n], n = p, n+1
	}
	for i := range a.UnitBusy {
		c[n], n = &a.UnitBusy[i], n+1
	}
	return c
}

// Sub returns the element-wise difference a - b: the activity of the
// interval between two cumulative snapshots.
func (a Activity) Sub(b *Activity) Activity {
	bc := b.counters()
	for i, p := range a.counters() {
		*p -= *bc[i]
	}
	return a
}

// Vector returns every counter of a in declaration order; SetVector is its
// inverse. Together they let a caller scale or accumulate all counters
// without naming them.
func (a *Activity) Vector() (v [VectorLen]uint64) {
	for i, p := range a.counters() {
		v[i] = *p
	}
	return v
}

// SetVector sets every counter of a from v, in Vector's order.
func (a *Activity) SetVector(v [VectorLen]uint64) {
	for i, p := range a.counters() {
		*p = v[i]
	}
}

// IPC returns retired architectural instructions per cycle.
func (a *Activity) IPC() float64 {
	if a.Cycles == 0 {
		return 0
	}
	return float64(a.Instructions) / float64(a.Cycles)
}

// CPI returns cycles per instruction.
func (a *Activity) CPI() float64 {
	if a.Instructions == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(a.Instructions)
}

// FlopsPerCycle returns floating-point operations per cycle.
func (a *Activity) FlopsPerCycle() float64 {
	if a.Cycles == 0 {
		return 0
	}
	return float64(a.Flops) / float64(a.Cycles)
}

// BusyFraction returns the fraction of cycles unit u was active.
func (a *Activity) BusyFraction(u Unit) float64 {
	if a.Cycles == 0 {
		return 0
	}
	return float64(a.UnitBusy[u]) / float64(a.Cycles)
}

// MispredictsPerKI returns branch mispredicts per 1000 instructions.
func (a *Activity) MispredictsPerKI() float64 {
	if a.Instructions == 0 {
		return 0
	}
	return 1000 * float64(a.BranchMispredicts) / float64(a.Instructions)
}

// CounterNames lists, in a fixed order, the performance-counter features
// exported for counter-based power modeling. Rates are per cycle.
var CounterNames = []string{
	"ipc", "fetch_slots", "wrongpath_slots", "icache_access", "icache_miss",
	"ierat_lookup", "branch", "branch_mispred", "decode_slots", "fused_pairs",
	"rename_ops", "iq_writes", "rs_wakeups", "reg_reads", "reg_writes",
	"issue_int", "issue_mul", "issue_div", "issue_branch", "issue_load",
	"issue_store", "issue_vsx_alu", "issue_vsx_fp", "issue_vsx_fma",
	"issue_mma", "issue_mma_move", "l1d_access", "l1d_miss", "l2_access",
	"l2_miss", "l3_access", "l3_miss", "mem_access", "derat_lookup",
	"tlb_lookup", "tlb_miss", "lq_alloc", "sq_alloc", "sq_gather",
	"store_forward", "prefetch", "mma_ops", "flops", "busy_ifu", "busy_idu", "busy_fxu",
	"busy_vsu", "busy_mma", "busy_lsu", "busy_mmu", "busy_l2",
	"dispatch_stall", "flush_insts",
}

// Counters returns the per-cycle-normalized feature vector matching
// CounterNames. These play the role of the M1/RTLSim stats that feed the
// paper's power-model generation flow.
func (a *Activity) Counters() []float64 {
	cyc := float64(a.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	r := func(v uint64) float64 { return float64(v) / cyc }
	iss := func(c isa.Class) float64 { return r(a.IssueByClass[c]) }
	return []float64{
		a.IPC(), r(a.FetchSlots), r(a.WrongPathSlots), r(a.ICacheAccesses),
		r(a.ICacheMisses), r(a.IERATLookups), r(a.BranchObserved),
		r(a.BranchMispredicts), r(a.DecodeSlots), r(a.FusedPairs),
		r(a.RenameOps), r(a.IssueQueueWrites), r(a.RSWakeups),
		r(a.RegReads), r(a.RegWrites),
		iss(isa.ClassIntALU), iss(isa.ClassIntMul), iss(isa.ClassIntDiv),
		iss(isa.ClassCondBranch) + iss(isa.ClassBranch) + iss(isa.ClassIndirBranch),
		iss(isa.ClassLoad) + iss(isa.ClassVSXLoad) + iss(isa.ClassVSXPairLoad),
		iss(isa.ClassStore) + iss(isa.ClassVSXStore) + iss(isa.ClassVSXPairStore),
		iss(isa.ClassVSXALU), iss(isa.ClassVSXFP), iss(isa.ClassVSXFMA),
		iss(isa.ClassMMA), iss(isa.ClassMMAMove),
		r(a.L1DAccesses), r(a.L1DMisses), r(a.L2Accesses), r(a.L2Misses),
		r(a.L3Accesses), r(a.L3Misses), r(a.MemAccesses), r(a.DERATLookups),
		r(a.TLBLookups), r(a.TLBMisses), r(a.LQAllocs), r(a.SQAllocs),
		r(a.SQGathered), r(a.StoreForwards), r(a.Prefetches), r(a.MMAOps), r(a.Flops),
		a.BusyFraction(UnitFetch), a.BusyFraction(UnitDecode),
		a.BusyFraction(UnitFXU), a.BusyFraction(UnitVSU),
		a.BusyFraction(UnitMMA), a.BusyFraction(UnitLSU),
		a.BusyFraction(UnitMMU), a.BusyFraction(UnitL2),
		r(a.DispatchStallCycles), r(a.FlushedInsts),
	}
}
