package power

import (
	"reflect"
	"sort"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/rtl"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestReportMatchesReference holds Report to refReport bit for bit: every
// catalog program's full run on POWER9 and POWER10, a zero-cycle activity,
// and the 10-cycle sampler deltas of a run, whose short windows leave many
// counters at zero.
func TestReportMatchesReference(t *testing.T) {
	check := func(what string, m *Model, a *uarch.Activity) {
		t.Helper()
		if got, want := m.Report(a), refReport(m, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
		}
	}
	for _, cfg := range []*uarch.Config{uarch.POWER9(), uarch.POWER10()} {
		m := NewModel(cfg)
		check(cfg.Name+" zero-cycle activity", m, &uarch.Activity{})
		for name, w := range workloads.Catalog() {
			if !cfg.HasMMA && usesMMA(w.Prog) {
				continue // POWER9 cannot run it
			}
			res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
				30_000_000, uarch.WithWarmup(w.Warmup))
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			check(name+" on "+cfg.Name, m, &res.Activity)
		}
	}
	cfg := uarch.POWER10()
	m := NewModel(cfg)
	w := workloads.Compress()
	deltas := 0
	_, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)}, 30_000_000,
		uarch.WithSampler(10, func(s uarch.CycleSample) {
			deltas++
			check("compress 10-cycle delta", m, &s.Delta)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if deltas < 1000 {
		t.Fatalf("%d sampler deltas, want a full run's worth", deltas)
	}
}

// usesMMA reports whether a program has a Matrix-Multiply Assist
// instruction.
func usesMMA(p *isa.Program) bool {
	for i := range p.Code {
		if p.Code[i].Class().IsMMA() {
			return true
		}
	}
	return false
}

// refReport is the map-based Report the table-driven one replaced: it
// builds the component index, the unit-to-component table and the
// switching and array maps on every call and sums each map in sorted-name
// order.
func refReport(m *Model, a *uarch.Activity) *Report {
	cfg := m.Cfg
	cyc := float64(a.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	rate := func(v uint64) float64 { return float64(v) / cyc }
	comp := make([]float64, NumComponents)
	idx := map[string]int{}
	for i, n := range ComponentNames {
		idx[n] = i
	}
	add := func(name string, v float64) { comp[idx[name]] += v }

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

	lstats := m.Latch.Analyze(a)

	// --- Clock: latch clocks per unit + global grid. ---
	unitClock := make([]float64, uarch.NumUnits)
	for i, b := range m.Latch.Buckets {
		unitClock[b.Unit] += float64(b.Latches) * lstats.BucketUtil[i] * cClkLatch
	}
	clockMap := map[uarch.Unit]string{
		uarch.UnitFetch: "ifu-fetch-latch", uarch.UnitBPred: "bru-pipe",
		uarch.UnitDecode: "idu-decode", uarch.UnitRename: "rename-map",
		uarch.UnitIssue: "issq-data", uarch.UnitFXU: "fxu-alu",
		uarch.UnitVSU: "vsu-fma", uarch.UnitMMA: "mma-grid",
		uarch.UnitLSU: "lsu-agen", uarch.UnitMMU: "mmu-derat",
		uarch.UnitL2: "l2-tag", uarch.UnitCompletion: "cpl-table",
	}
	var clock float64
	for u, p := range unitClock {
		p *= m.impl
		clock += p
		add(clockMap[uarch.Unit(u)], p)
	}
	gridP := cClkGrid * m.impl
	clock += gridP
	add("clock-grid", gridP)

	// --- Switching: per-event logic energies. ---
	sw := map[string]float64{}
	sw["idu-decode"] = rate(a.DecodeSlots) * eDecodeSlot
	sw["idu-fusion"] = rate(a.FusedPairs) * eFusion
	sw["idu-dispatch"] = rate(a.InternalOps) * eDispatch
	sw["rename-map"] = rate(a.RenameOps) * eRename
	sw["issq-data"] = rate(a.IssueQueueWrites) * eIQWrite
	sw["issq-wake"] = rate(a.RSWakeups) * eRSWake
	sw["regfile-read"] = rate(a.RegReads) * eRegRead
	sw["regfile-write"] = rate(a.RegWrites) * eRegWrite
	rc := func(c isa.Class) float64 { return rate(a.IssueByClass[c]) }
	sw["fxu-alu"] = (rc(isa.ClassIntALU) + rc(isa.ClassNop) + rc(isa.ClassSystem)) * eIntOp
	sw["fxu-alu"] += (rc(isa.ClassBranch) + rc(isa.ClassCondBranch) + rc(isa.ClassIndirBranch)) * eBranchOp
	sw["fxu-muldiv"] = rc(isa.ClassIntMul)*eMulOp + rc(isa.ClassIntDiv)*eDivOp
	sw["vsu-simple"] = (rc(isa.ClassVSXALU)*eVSXALU + rc(isa.ClassVSXFP)*eVSXFP) * m.vsuImpl
	sw["vsu-fma"] = rc(isa.ClassVSXFMA) * eVSXFMA * m.vsuImpl
	sw["mma-grid"] = rate(a.MMAOps) * eMMAGer
	sw["mma-move"] = rate(a.MMAMoves) * eMMAMove
	loads := rc(isa.ClassLoad) + rc(isa.ClassVSXLoad) + rc(isa.ClassVSXPairLoad)
	stores := rc(isa.ClassStore) + rc(isa.ClassVSXStore) + rc(isa.ClassVSXPairStore)
	sw["lsu-agen"] = (loads + stores) * eAgen
	sw["lsu-lq"] = rate(a.LQAllocs) * eLQ
	sw["lsu-sq"] = rate(a.SQAllocs) * eSQ
	sw["lsu-prefetch"] = rate(a.Prefetches) * ePrefetch
	sw["cpl-table"] = rate(a.InternalOps) * eCplOp
	sw["cpl-retire"] = rate(a.Instructions) * eRetire
	sw["mmu-walk"] = rate(a.TLBMisses) * eWalk
	sw["pcu"] = cPCU

	// Float accumulation order must be deterministic (the experiment runner
	// memoizes reports and asserts bit-identical reruns), so the component
	// maps are summed in sorted-name order, never map order.
	var switching float64
	for _, name := range sortedNames(sw) {
		p := sw[name] * m.impl
		switching += p
		add(name, p)
	}
	// Ghost switching: charged against the datapath latch population.
	ghost := lstats.GhostSwitchRatio * float64(lstats.TotalLatches) * cGhost * m.impl
	switching += ghost
	add("idu-dispatch", ghost) // distributed; book under dispatch datapath

	// --- Arrays. ---
	ar := map[string]float64{}
	ar["ifu-l1i-array"] = rate(a.ICacheAccesses) * arrE("l1i")
	ar["ifu-predecode"] = rate(a.FetchSlots+a.WrongPathSlots) * 0.6
	ar["ifu-ierat"] = rate(a.IERATLookups) * kERATCam
	ar["bru-dir-array"] = rate(a.BranchObserved) * kArray * rtl.AccessEnergy(cfg.BPred.DirEntries*2+cfg.BPred.SecondEntries*14)
	ar["bru-btb-array"] = rate(a.BranchObserved) * kArray * rtl.AccessEnergy(cfg.BPred.BTBEntries*60)
	if cfg.BPred.IndirEntries > 0 {
		ar["bru-indir-array"] = rate(a.BranchObserved) * kArray * rtl.AccessEnergy(cfg.BPred.IndirEntries*60) * 0.3
	}
	ar["lsu-l1d-array"] = rate(a.L1DAccesses) * arrE("l1d")
	ar["mmu-derat"] = rate(a.DERATLookups) * kERATCam
	ar["mmu-tlb"] = rate(a.TLBLookups) * kTLB * rtl.AccessEnergy(bitOf("tlb"))
	ar["l2-tag"] = rate(a.L2Accesses) * 2.2
	ar["l2-data"] = rate(a.L2Accesses) * arrE("l2") * 0.5
	if b3 := bitOf("l3"); b3 > 0 {
		ar["l3"] = rate(a.L3Accesses) * kArray * rtl.AccessEnergy(b3) * 0.4
	}
	ar["membus"] = rate(a.MemAccesses) * 95.0
	// Register-file array energy (beyond port logic).
	ar["regfile-read"] = rate(a.RegReads) * kArray * rtl.AccessEnergy(bitOf("regfile")) * 0.25
	ar["regfile-write"] = rate(a.RegWrites) * kArray * rtl.AccessEnergy(bitOf("regfile")) * 0.35
	// MMA accumulator file: local, cheap, only when active.
	ar["mma-acc"] = rate(a.MMAOps+a.MMAMoves) * 2.0

	var array float64
	for _, name := range sortedNames(ar) {
		p := ar[name] * m.impl
		array += p
		add(name, p)
	}

	// --- Leakage. ---
	var leak float64
	latchByUnit := make([]float64, uarch.NumUnits)
	for _, b := range m.Latch.Buckets {
		latchByUnit[b.Unit] += float64(b.Latches)
	}
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		l := latchByUnit[u] * cLeakLatch * m.implLeak
		if u == uarch.UnitMMA && cfg.HasMMA {
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
		add(clockMap[u], l)
	}
	for _, b := range bits {
		p := float64(b.Bits) * cLeakBit * m.implLeak
		leak += p
		switch b.Name {
		case "l1i":
			add("ifu-l1i-array", p)
		case "l1d":
			add("lsu-l1d-array", p)
		case "l2":
			add("l2-data", p)
		case "l3":
			add("l3", p)
		case "tlb":
			add("mmu-tlb", p)
		case "bpred":
			add("bru-dir-array", p)
		case "regfile":
			add("regfile-read", p)
		}
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
	var idleLatch float64
	for _, b := range m.Latch.Buckets {
		if !b.Config && b.Weight > 0 {
			idleLatch += float64(b.Latches) * (1 - m.Latch.GatingEff) * cClkLatch
		}
	}
	rep.ActiveIdle = (idleLatch*m.impl + gridP + cPCU*m.impl + leak) * globalScale
	return rep
}

// sortedNames returns a float-valued map's keys in sorted order.
func sortedNames(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
