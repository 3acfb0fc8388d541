// Package uarch implements a configurable cycle-level out-of-order SMT core
// timing model. Two parameter sets — POWER9-shaped and POWER10-shaped — carry
// the structural differences the paper credits for its efficiency gains:
// doubled SIMD and load/store resources, 4x L2 and MMU capacity, EA-tagged L1
// caches, instruction fusion, unified sliced register files in place of
// reservation stations, enlarged instruction windows, improved branch
// predictors, and the inline MMA accelerator.
//
// The simulator is trace driven: it replays dynamic instruction streams
// produced by the functional executor and charges timing (and unit activity,
// for the power model) against the configured resources.
package uarch

import (
	"fmt"
	"sync"

	"power10sim/internal/isa"
)

// CacheParams describes one cache level.
type CacheParams struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Latency   int // access latency in cycles (hit)
}

// Sets returns the number of sets.
func (c CacheParams) Sets() int {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Assoc == 0 {
		return 0
	}
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// BPredParams sizes the branch prediction structures.
type BPredParams struct {
	DirEntries    int  // primary direction predictor (gshare) entries
	SecondDir     bool // POWER10 adds a second direction predictor (tag-based)
	SecondEntries int
	HistoryBits   int
	BTBEntries    int
	IndirEntries  int // indirect target predictor entries (0 = none)
	ReturnOnMiss  bool
}

// Config is the full micro-architectural parameter set of a core.
type Config struct {
	Name string

	// Pipeline geometry.
	FO4PerStage          int // logic depth per stage (27 for both generations)
	FetchWidth           int // instructions fetched per cycle
	FetchBufEntries      int
	DecodeWidth          int // instructions decoded per cycle
	RetireWidth          int
	BranchResolveLatency int // fetch-to-execute depth charged on mispredict

	// Front end.
	L1I        CacheParams
	EATaggedL1 bool // effective-address tagged L1s: translate only on miss
	BPred      BPredParams

	// Fusion (POWER10: >200 pair types detected at predecode).
	FusionEnabled bool

	// Out-of-order engine.
	InstrTableEntries   int // completion/instruction table (ROB)
	IssueQueueEntries   int
	ReservationStations bool // POWER9 style; POWER10 uses unified slices
	RenameRegs          int

	// Execution resources (full SMT8 core).
	IntPipes    int // general execution slices usable by scalar integer ops
	VSXPipes    int // 128-bit SIMD pipes (FMA capable)
	BranchPipes int
	LoadPorts   int
	StorePorts  int

	// MMA accelerator.
	HasMMA             bool
	MMAThroughput      int  // outer-product ops accepted per cycle
	MMALatency         int  // result latency of one ger op
	MMAAccumForwarding bool // back-to-back accumulation on the same ACC

	// Load/store unit.
	LoadQueueEntries  int // SMT mode capacity
	StoreQueueEntries int
	LoadMissQueue     int
	StoreGather       bool // merge consecutive-address stores in the SQ
	L1D               CacheParams
	L2                CacheParams
	L2Infinite        bool // APEX "core model": L2 never misses (Fig. 10)
	L3                CacheParams
	MemLatency        int
	PrefetchStreams   int

	// MMU.
	ERATEntries int
	TLBEntries  int
	TLBLatency  int // ERAT-miss, TLB-hit penalty
	WalkLatency int // TLB-miss table-walk penalty
	PageBytes   int

	// Instruction latencies by class.
	Latency [isa.NumClasses]int

	// SMT.
	SMTMax int

	// CircuitGrade overrides the power model's implementation-efficiency
	// inference: relative dynamic energy per event (1.0 = POWER9-era
	// circuits). Zero means "infer from the structural markers".
	CircuitGrade float64
}

// Validate reports whether a core can be built from c and run: every width,
// queue and table is positive, every latency is non-negative, SMTMax fits
// the per-thread activity counters, L1I and L1D are real caches, and L2 and
// L3 are real or absent (SizeBytes 0). The upper bounds sit far above any
// modeled design; they keep a config decoded from the wire from making a
// worker allocate without limit.
func (c *Config) Validate() error {
	const (
		maxWidth   = 64
		maxEntries = 1 << 16
		maxTable   = 1 << 20
		maxLatency = 1 << 16
	)
	type field struct {
		name      string
		v, lo, hi int
	}
	mmaMin := 0
	if c.HasMMA {
		mmaMin = 1
	}
	fields := []field{
		{"FetchWidth", c.FetchWidth, 1, maxWidth},
		{"DecodeWidth", c.DecodeWidth, 1, maxWidth},
		{"RetireWidth", c.RetireWidth, 1, maxWidth},
		{"IntPipes", c.IntPipes, 1, maxWidth},
		{"VSXPipes", c.VSXPipes, 1, maxWidth},
		{"BranchPipes", c.BranchPipes, 1, maxWidth},
		{"LoadPorts", c.LoadPorts, 1, maxWidth},
		{"StorePorts", c.StorePorts, 1, maxWidth},
		{"MMAThroughput", c.MMAThroughput, mmaMin, maxWidth},
		{"FetchBufEntries", c.FetchBufEntries, 1, maxEntries},
		{"InstrTableEntries", c.InstrTableEntries, 1, maxEntries},
		{"IssueQueueEntries", c.IssueQueueEntries, 1, maxEntries},
		{"RenameRegs", c.RenameRegs, 1, maxEntries},
		{"LoadQueueEntries", c.LoadQueueEntries, 1, maxEntries},
		{"StoreQueueEntries", c.StoreQueueEntries, 1, maxEntries},
		{"LoadMissQueue", c.LoadMissQueue, 1, maxEntries},
		{"ERATEntries", c.ERATEntries, 1, maxEntries},
		{"TLBEntries", c.TLBEntries, 1, maxEntries},
		{"PrefetchStreams", c.PrefetchStreams, 0, maxEntries},
		{"BPred.DirEntries", c.BPred.DirEntries, 0, maxTable},
		{"BPred.SecondEntries", c.BPred.SecondEntries, 0, maxTable},
		{"BPred.BTBEntries", c.BPred.BTBEntries, 0, maxTable},
		{"BPred.IndirEntries", c.BPred.IndirEntries, 0, maxTable},
		{"BPred.HistoryBits", c.BPred.HistoryBits, 0, 64},
		{"BranchResolveLatency", c.BranchResolveLatency, 0, maxLatency},
		{"MMALatency", c.MMALatency, 0, maxLatency},
		{"MemLatency", c.MemLatency, 0, maxLatency},
		{"TLBLatency", c.TLBLatency, 0, maxLatency},
		{"WalkLatency", c.WalkLatency, 0, maxLatency},
		{"SMTMax", c.SMTMax, 1, len(Activity{}.PerThread)},
	}
	for i, l := range c.Latency {
		fields = append(fields, field{fmt.Sprintf("Latency[%v]", isa.Class(i)), l, 0, maxLatency})
	}
	for _, f := range fields {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("uarch: config %q: %s = %d, want %d..%d", c.Name, f.name, f.v, f.lo, f.hi)
		}
	}
	if !pow2In(c.PageBytes, 1<<30) {
		return fmt.Errorf("uarch: config %q: PageBytes = %d, want a power of two up to 1 GiB", c.Name, c.PageBytes)
	}
	if !(c.CircuitGrade >= 0) {
		return fmt.Errorf("uarch: config %q: CircuitGrade = %v, want >= 0", c.Name, c.CircuitGrade)
	}
	for _, lv := range []struct {
		name     string
		p        CacheParams
		required bool
	}{{"L1I", c.L1I, true}, {"L1D", c.L1D, true}, {"L2", c.L2, false}, {"L3", c.L3, false}} {
		p := lv.p
		if p.SizeBytes == 0 && !lv.required {
			continue
		}
		if !pow2In(p.LineBytes, 1<<12) || p.Assoc < 1 || p.Assoc > maxTable || p.SizeBytes < p.LineBytes*p.Assoc ||
			p.SizeBytes/p.LineBytes > maxTable || p.Latency < 0 || p.Latency > maxLatency {
			return fmt.Errorf("uarch: config %q: %s geometry %+v cannot be built", c.Name, lv.name, p)
		}
	}
	return nil
}

// pow2In reports whether v is a power of two no larger than hi.
func pow2In(v, hi int) bool { return v > 0 && v <= hi && v&(v-1) == 0 }

// defaultLatencies fills per-class execute latencies.
func defaultLatencies(vsxLat, mulLat, divLat int) [isa.NumClasses]int {
	var l [isa.NumClasses]int
	for c := 0; c < isa.NumClasses; c++ {
		l[c] = 1
	}
	l[isa.ClassIntMul] = mulLat
	l[isa.ClassIntDiv] = divLat
	l[isa.ClassVSXFP] = vsxLat
	l[isa.ClassVSXFMA] = vsxLat
	l[isa.ClassVSXALU] = 2
	l[isa.ClassMMAMove] = 2
	return l
}

// POWER9 returns the prior-generation baseline configuration.
func POWER9() *Config {
	c := &Config{
		Name:                 "POWER9",
		FO4PerStage:          27,
		FetchWidth:           8,
		FetchBufEntries:      64,
		DecodeWidth:          6,
		RetireWidth:          6,
		BranchResolveLatency: 14,

		L1I:        CacheParams{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 8, Latency: 2},
		EATaggedL1: false,
		BPred: BPredParams{
			DirEntries:    8192,
			SecondDir:     true, // POWER9 already had tagged history prediction
			SecondEntries: 1024,
			HistoryBits:   12,
			BTBEntries:    4096,
		},

		FusionEnabled: false,

		InstrTableEntries:   256,
		IssueQueueEntries:   48,
		ReservationStations: true,
		RenameRegs:          180,

		IntPipes:    6,
		VSXPipes:    2,
		BranchPipes: 2,
		LoadPorts:   2,
		StorePorts:  2,

		HasMMA: false,

		LoadQueueEntries:  64,
		StoreQueueEntries: 40,
		LoadMissQueue:     8,
		StoreGather:       false,
		L1D:               CacheParams{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 8, Latency: 5},
		L2:                CacheParams{SizeBytes: 512 << 10, LineBytes: 128, Assoc: 8, Latency: 14},
		L3:                CacheParams{SizeBytes: 10 << 20, LineBytes: 128, Assoc: 20, Latency: 32},
		MemLatency:        320,
		PrefetchStreams:   8,

		ERATEntries: 32,
		TLBEntries:  1024,
		TLBLatency:  12,
		WalkLatency: 60,
		PageBytes:   1 << 16, // 64 KiB pages, POWER default

		Latency: defaultLatencies(7, 5, 24),
		SMTMax:  8,
	}
	return c
}

// POWER10 returns the new-generation configuration described in the paper.
func POWER10() *Config {
	c := &Config{
		Name:                 "POWER10",
		FO4PerStage:          27, // unchanged per the Fig. 2 analysis
		FetchWidth:           8,
		FetchBufEntries:      128,
		DecodeWidth:          8, // pairing: 8 per cycle vs 6 on POWER9
		RetireWidth:          8,
		BranchResolveLatency: 13,

		L1I:        CacheParams{SizeBytes: 48 << 10, LineBytes: 128, Assoc: 6, Latency: 2},
		EATaggedL1: true,
		BPred: BPredParams{
			DirEntries:    16384, // doubled selective resources
			SecondDir:     true,  // new direction predictor
			SecondEntries: 4096,
			HistoryBits:   16,
			BTBEntries:    8192,
			IndirEntries:  2048, // new indirect target predictor
		},

		FusionEnabled: true,

		InstrTableEntries:   512,
		IssueQueueEntries:   96,
		ReservationStations: false, // unified sliced register file
		RenameRegs:          280,   // significant rename-capacity growth

		IntPipes:    8,
		VSXPipes:    4, // 8x128b units; 4 FMA-capable pipes -> 16 DP flops/cyc peak
		BranchPipes: 2,
		LoadPorts:   4,
		StorePorts:  4,

		HasMMA:             true,
		MMAThroughput:      2, // 2 ger/cycle -> 32 DP flops/cyc peak
		MMALatency:         4,
		MMAAccumForwarding: true,

		LoadQueueEntries:  128,
		StoreQueueEntries: 80,
		LoadMissQueue:     12,
		StoreGather:       true,
		L1D:               CacheParams{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 8, Latency: 4},
		L2:                CacheParams{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 8, Latency: 13},
		L3:                CacheParams{SizeBytes: 8 << 20, LineBytes: 128, Assoc: 16, Latency: 27},
		MemLatency:        300,
		PrefetchStreams:   16,

		ERATEntries: 64,
		TLBEntries:  4096, // 4x MMU resource
		TLBLatency:  10,
		WalkLatency: 50,
		PageBytes:   1 << 16,

		Latency: defaultLatencies(7, 5, 22),
		SMTMax:  8,
	}
	return c
}

// POWER10NoMMA returns the POWER10 configuration with the MMA disabled
// (the "POWER10 w/o MMA" series of Fig. 6).
func POWER10NoMMA() *Config {
	c := POWER10()
	c.Name = "POWER10-noMMA"
	c.HasMMA = false
	return c
}

// POWER10Next sketches the paper's closing future-work direction:
// research-mode register-file optimization, layer-specific metal pitch
// reduction, improved multi-layer wiring utilization and latch preplacement
// "promise significant additional improvements in power-performance
// efficiency for future processors". Structurally it is POWER10 with the
// rename/register resources the regfile work unlocks and a further circuit
// implementation grade; it exists for ablation studies, not as a product
// claim.
func POWER10Next() *Config {
	c := POWER10()
	c.Name = "POWER10-next"
	c.RenameRegs = 320
	c.IssueQueueEntries = 128
	c.CircuitGrade = 0.55
	return c
}

// ConfigByName resolves the CLI-facing configuration names (long form or
// short alias) to a fresh Config, or nil for an unknown name. Shared by
// p10sim and the fabric coordinator's submit API so a config name denotes
// the same microarchitecture — and therefore the same content key —
// everywhere.
func ConfigByName(name string) *Config {
	switch name {
	case "POWER9", "p9":
		return POWER9()
	case "POWER10", "p10":
		return POWER10()
	case "POWER10-noMMA", "p10-nomma":
		return POWER10NoMMA()
	}
	return nil
}

// catalogConfigs lazily indexes every named configuration the experiment
// harness sweeps — the paper baselines, the Fig. 4 ablation ladder, and the
// infinite-L2 "core model" variants — for ResolveConfigName.
var catalogConfigs = sync.OnceValue(func() map[string]*Config {
	known := map[string]*Config{}
	add := func(c *Config) {
		if _, dup := known[c.Name]; !dup {
			known[c.Name] = c
		}
	}
	for _, c := range []*Config{POWER9(), POWER10(), POWER10NoMMA(), POWER10Next()} {
		add(c)
		add(InfiniteL2(c))
	}
	for _, c := range AblationLadder() {
		add(c)
	}
	return known
})

// ResolveConfigName resolves any catalog configuration name — the CLI
// aliases plus every named configuration the experiment harness sweeps — to
// a fresh copy, or nil for an unknown name. Callers that persist records
// keyed by config name use this to decide whether the name alone
// reconstructs the geometry (a nil here means it does not, and the full spec
// must travel with the record).
func ResolveConfigName(name string) *Config {
	if c, ok := catalogConfigs()[name]; ok {
		cp := *c
		return &cp
	}
	return ConfigByName(name)
}

// Ablation identifies one Fig. 4 design-change group.
type Ablation int

// Fig. 4 design-change groups, applied cumulatively on top of POWER9 in the
// order the paper's x-axis lists them.
const (
	AblBranch    Ablation = iota // branch-operation optimization
	AblLatencyBW                 // cache/TLB latency and load/store bandwidth
	AblL2Cache                   // 4x private L2
	AblDecodeVSX                 // decode widening + doubled VSX engines
	AblQueues                    // instruction window / queue growth
	NumAblations
)

var ablationNames = [...]string{
	"Branch operation", "Latency+BW", "L2 cache", "Decode+Double VSX", "Queues",
}

func (a Ablation) String() string {
	if int(a) < len(ablationNames) {
		return ablationNames[a]
	}
	return "ablation(?)"
}

// Apply mutates cfg with the design change represented by a, copying the
// corresponding POWER10 parameters onto a POWER9-derived config.
func (a Ablation) Apply(cfg *Config) {
	p10 := POWER10()
	switch a {
	case AblBranch:
		cfg.BPred = p10.BPred
		cfg.BranchResolveLatency = p10.BranchResolveLatency
	case AblLatencyBW:
		cfg.L1D.Latency = p10.L1D.Latency
		cfg.L2.Latency = p10.L2.Latency
		cfg.L3.Latency = p10.L3.Latency
		cfg.MemLatency = p10.MemLatency
		cfg.TLBLatency = p10.TLBLatency
		cfg.WalkLatency = p10.WalkLatency
		cfg.LoadPorts = p10.LoadPorts
		cfg.StorePorts = p10.StorePorts
		cfg.PrefetchStreams = p10.PrefetchStreams
		cfg.ERATEntries = p10.ERATEntries
		cfg.TLBEntries = p10.TLBEntries
		// Memory-level parallelism is a bandwidth resource.
		cfg.LoadMissQueue = p10.LoadMissQueue
	case AblL2Cache:
		cfg.L2 = p10.L2
	case AblDecodeVSX:
		cfg.DecodeWidth = p10.DecodeWidth
		cfg.RetireWidth = p10.RetireWidth
		cfg.FusionEnabled = true
		cfg.VSXPipes = p10.VSXPipes
		cfg.IntPipes = p10.IntPipes
		cfg.L1I = p10.L1I
	case AblQueues:
		cfg.InstrTableEntries = p10.InstrTableEntries
		cfg.IssueQueueEntries = p10.IssueQueueEntries
		cfg.RenameRegs = p10.RenameRegs
		cfg.LoadQueueEntries = p10.LoadQueueEntries
		cfg.StoreQueueEntries = p10.StoreQueueEntries
		cfg.FetchBufEntries = p10.FetchBufEntries
	}
}

// AblationLadder returns configurations that apply Fig. 4's design-change
// groups cumulatively, starting from POWER9. Element 0 is plain POWER9;
// element i+1 adds ablation i.
func AblationLadder() []*Config {
	out := make([]*Config, 0, int(NumAblations)+1)
	base := POWER9()
	base.Name = "P9-base"
	out = append(out, base)
	cur := *base
	for a := Ablation(0); a < NumAblations; a++ {
		next := cur // copy
		a.Apply(&next)
		next.Name = "P9+" + a.String()
		out = append(out, &next)
		cur = next
	}
	return out
}

// InfiniteL2 returns a copy of cfg with an infinite (never-missing) L2 and
// no further hierarchy — the APEX "core model" of Fig. 10.
func InfiniteL2(cfg *Config) *Config {
	c := *cfg
	c.Name = cfg.Name + "-coremodel"
	c.L2Infinite = true
	c.L3 = CacheParams{}
	c.MemLatency = cfg.L2.Latency
	return &c
}
