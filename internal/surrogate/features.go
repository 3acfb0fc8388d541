package surrogate

import (
	"math"

	"power10sim/internal/isa"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
)

// The feature row is [workload one-hots][workload profile][config features]
// [context features][interaction features]. The one-hot vocabulary is
// model-specific (the sorted workload names of the training corpus); every
// other block has a fixed layout, so two models trained on the same corpus
// agree on every column index.

// configFeature is one numeric projection of a core configuration. Sizes and
// table depths enter as log2: doubling a cache or a queue is one unit step,
// which is the scale CPI actually responds on, and it keeps a 2MB L2 from
// drowning a 4-wide decode in the standardizer.
type configFeature struct {
	name string
	get  func(c *uarch.Config) float64
}

func lg2(v float64) float64 {
	if v <= 1 {
		return 0
	}
	return math.Log2(v)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var configFeatures = []configFeature{
	{"cfg_fetch_width", func(c *uarch.Config) float64 { return float64(c.FetchWidth) }},
	{"cfg_fetch_buf_log2", func(c *uarch.Config) float64 { return lg2(float64(c.FetchBufEntries)) }},
	{"cfg_decode_width", func(c *uarch.Config) float64 { return float64(c.DecodeWidth) }},
	{"cfg_retire_width", func(c *uarch.Config) float64 { return float64(c.RetireWidth) }},
	{"cfg_branch_resolve_lat", func(c *uarch.Config) float64 { return float64(c.BranchResolveLatency) }},
	{"cfg_l1i_log2", func(c *uarch.Config) float64 { return lg2(float64(c.L1I.SizeBytes)) }},
	{"cfg_l1i_lat", func(c *uarch.Config) float64 { return float64(c.L1I.Latency) }},
	{"cfg_l1d_log2", func(c *uarch.Config) float64 { return lg2(float64(c.L1D.SizeBytes)) }},
	{"cfg_l1d_lat", func(c *uarch.Config) float64 { return float64(c.L1D.Latency) }},
	{"cfg_l1d_assoc_log2", func(c *uarch.Config) float64 { return lg2(float64(c.L1D.Assoc)) }},
	{"cfg_l2_log2", func(c *uarch.Config) float64 { return lg2(float64(c.L2.SizeBytes)) }},
	{"cfg_l2_lat", func(c *uarch.Config) float64 { return float64(c.L2.Latency) }},
	{"cfg_l3_log2", func(c *uarch.Config) float64 { return lg2(float64(c.L3.SizeBytes)) }},
	{"cfg_l3_lat", func(c *uarch.Config) float64 { return float64(c.L3.Latency) }},
	{"cfg_mem_lat", func(c *uarch.Config) float64 { return float64(c.MemLatency) }},
	{"cfg_bpred_dir_log2", func(c *uarch.Config) float64 { return lg2(float64(c.BPred.DirEntries)) }},
	{"cfg_bpred_second", func(c *uarch.Config) float64 { return b2f(c.BPred.SecondDir) }},
	{"cfg_bpred_btb_log2", func(c *uarch.Config) float64 { return lg2(float64(c.BPred.BTBEntries)) }},
	{"cfg_bpred_hist", func(c *uarch.Config) float64 { return float64(c.BPred.HistoryBits) }},
	{"cfg_itab_log2", func(c *uarch.Config) float64 { return lg2(float64(c.InstrTableEntries)) }},
	{"cfg_issueq_log2", func(c *uarch.Config) float64 { return lg2(float64(c.IssueQueueEntries)) }},
	{"cfg_reservation_stations", func(c *uarch.Config) float64 { return b2f(c.ReservationStations) }},
	{"cfg_rename_log2", func(c *uarch.Config) float64 { return lg2(float64(c.RenameRegs)) }},
	{"cfg_int_pipes", func(c *uarch.Config) float64 { return float64(c.IntPipes) }},
	{"cfg_vsx_pipes", func(c *uarch.Config) float64 { return float64(c.VSXPipes) }},
	{"cfg_branch_pipes", func(c *uarch.Config) float64 { return float64(c.BranchPipes) }},
	{"cfg_load_ports", func(c *uarch.Config) float64 { return float64(c.LoadPorts) }},
	{"cfg_store_ports", func(c *uarch.Config) float64 { return float64(c.StorePorts) }},
	{"cfg_loadq_log2", func(c *uarch.Config) float64 { return lg2(float64(c.LoadQueueEntries)) }},
	{"cfg_storeq_log2", func(c *uarch.Config) float64 { return lg2(float64(c.StoreQueueEntries)) }},
	{"cfg_lmq", func(c *uarch.Config) float64 { return float64(c.LoadMissQueue) }},
	{"cfg_prefetch_streams", func(c *uarch.Config) float64 { return float64(c.PrefetchStreams) }},
	{"cfg_mma", func(c *uarch.Config) float64 { return b2f(c.HasMMA) }},
	{"cfg_mma_tput", func(c *uarch.Config) float64 { return float64(c.MMAThroughput) }},
	{"cfg_mma_lat", func(c *uarch.Config) float64 { return float64(c.MMALatency) }},
	{"cfg_mma_fwd", func(c *uarch.Config) float64 { return b2f(c.MMAAccumForwarding) }},
	{"cfg_fusion", func(c *uarch.Config) float64 { return b2f(c.FusionEnabled) }},
	{"cfg_eatag", func(c *uarch.Config) float64 { return b2f(c.EATaggedL1) }},
	{"cfg_store_gather", func(c *uarch.Config) float64 { return b2f(c.StoreGather) }},
	{"cfg_l2_infinite", func(c *uarch.Config) float64 { return b2f(c.L2Infinite) }},
	{"cfg_erat_log2", func(c *uarch.Config) float64 { return lg2(float64(c.ERATEntries)) }},
	{"cfg_tlb_log2", func(c *uarch.Config) float64 { return lg2(float64(c.TLBEntries)) }},
	{"cfg_tlb_lat", func(c *uarch.Config) float64 { return float64(c.TLBLatency) }},
	{"cfg_walk_lat", func(c *uarch.Config) float64 { return float64(c.WalkLatency) }},
	{"cfg_page_log2", func(c *uarch.Config) float64 { return lg2(float64(c.PageBytes)) }},
	{"cfg_circuit_grade", func(c *uarch.Config) float64 { return c.CircuitGrade }},
	{"cfg_smt_max", func(c *uarch.Config) float64 { return float64(c.SMTMax) }},
}

// contextNames are the per-request (not per-config, not per-workload)
// features: the SMT level and the measurement window. Budget matters because
// short runs are dominated by the cold-start transient the first-touch rates
// describe; warmup_frac because warmed statistics exclude part of it.
var contextNames = []string{"ctx_smt", "ctx_smt_inv", "ctx_budget_log2", "ctx_warmup_frac"}

// interactionNames are physically-motivated products of a workload rate and
// the config resource that serves it — the terms a linear model needs to
// capture "memory-bound workloads care about memory latency" without seeing
// every (workload, config) pair in training.
var interactionNames = []string{
	"x_mem_memlat",
	"x_mem_l2lat",
	"x_line_memlat",
	"x_page_walk",
	"x_branch_resolve",
	"x_vsx_per_pipe",
	"x_mma_no_hw",
	"x_mma_per_tput",
	"x_load_per_port",
	"x_store_per_port",
	"x_smt_per_window",
}

// rates condenses a workload profile into the aggregate class rates the
// interaction features use.
type rates struct {
	mem, load, store, branch, vsx, mma, line, page float64
}

func profileRates(p []float64) rates {
	var r rates
	for i := 0; i < isa.NumClasses; i++ {
		c := isa.Class(i)
		v := p[i]
		if c.IsMem() {
			r.mem += v
		}
		if c.IsLoad() {
			r.load += v
		}
		if c.IsStore() {
			r.store += v
		}
		if c.IsBranch() {
			r.branch += v
		}
		if c.IsVSX() {
			r.vsx += v
		}
		if c.IsMMA() {
			r.mma += v
		}
	}
	r.line = p[isa.NumClasses]
	r.page = p[isa.NumClasses+1]
	return r
}

// Featurizer renders feature rows for a fixed workload vocabulary. It is
// stateless after construction and safe for concurrent use.
type Featurizer struct {
	vocab    []string
	index    map[string]int
	names    []string
	subNames []string
}

// NewFeaturizer builds a featurizer over the given workload vocabulary
// (order is preserved; Train sorts it first so the layout is deterministic).
func NewFeaturizer(vocab []string) *Featurizer {
	f := &Featurizer{
		vocab: append([]string(nil), vocab...),
		index: make(map[string]int, len(vocab)),
	}
	for i, w := range f.vocab {
		f.index[w] = i
	}
	f.names = make([]string, 0, f.NumFeatures())
	for _, w := range f.vocab {
		f.names = append(f.names, "wl="+w)
	}
	for i := 0; i < isa.NumClasses; i++ {
		f.names = append(f.names, "mix_"+isa.Class(i).String())
	}
	f.names = append(f.names, "first_touch_line_rate", "first_touch_page_rate")
	for _, cf := range configFeatures {
		f.names = append(f.names, cf.name)
	}
	f.names = append(f.names, contextNames...)
	f.names = append(f.names, interactionNames...)
	// The per-workload sub-row: every non-identity column, then the same
	// columns crossed with log2(SMT). The products are what let a workload's
	// residual model express effects that appear or vanish with thread count
	// (a bigger L2 that helps one thread but thrashes under eight).
	base := f.names[f.subOffset():]
	f.subNames = make([]string, 0, 2*len(base))
	f.subNames = append(f.subNames, base...)
	for _, n := range base {
		f.subNames = append(f.subNames, n+"*smt_log2")
	}
	return f
}

// subOffset is the full-row index where the config block starts (everything
// before it — one-hots and the profile — is constant within a workload).
func (f *Featurizer) subOffset() int {
	return len(f.vocab) + sampling.ProfileLen
}

// Knows reports whether the workload is in the one-hot vocabulary.
func (f *Featurizer) Knows(workload string) bool {
	_, ok := f.index[workload]
	return ok
}

// NumFeatures is the feature-row width.
func (f *Featurizer) NumFeatures() int {
	return len(f.vocab) + sampling.ProfileLen + len(configFeatures) +
		len(contextNames) + len(interactionNames)
}

// Names returns the per-column feature names (do not mutate).
func (f *Featurizer) Names() []string { return f.names }

// SubWidth is the per-workload sub-row width.
func (f *Featurizer) SubWidth() int { return len(f.subNames) }

// SubNames returns the per-workload sub-row column names (do not mutate).
func (f *Featurizer) SubNames() []string { return f.subNames }

// SubRow projects a full feature row (as rendered by Row for the same
// request) onto the per-workload sub-space: the config/context/interaction
// columns plus each of them scaled by log2(smt). dst is reused when its
// capacity suffices.
func (f *Featurizer) SubRow(dst, full []float64, smt int) []float64 {
	if smt < 1 {
		smt = 1
	}
	off := f.subOffset()
	base := len(full) - off
	n := 2 * base
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	sl := lg2(float64(smt))
	for i := 0; i < base; i++ {
		v := full[off+i]
		dst[i] = v
		dst[base+i] = v * sl
	}
	return dst
}

// Row renders one feature row into dst (reused when its capacity suffices,
// so the steady-state prediction path allocates nothing). profile must be a
// sampling.Profile vector for the workload; an unknown workload simply gets
// all-zero one-hots (the profile block still describes it).
func (f *Featurizer) Row(dst []float64, cfg *uarch.Config, workload string, profile []float64, smt int, budget, warmup uint64) []float64 {
	if smt < 1 {
		smt = 1
	}
	n := f.NumFeatures()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	if i, ok := f.index[workload]; ok {
		dst[i] = 1
	}
	off := len(f.vocab)
	copy(dst[off:off+sampling.ProfileLen], profile)
	off += sampling.ProfileLen
	for i, cf := range configFeatures {
		dst[off+i] = cf.get(cfg)
	}
	off += len(configFeatures)
	s := float64(smt)
	dst[off] = s
	dst[off+1] = 1 / s
	dst[off+2] = lg2(float64(budget))
	if budget > 0 {
		dst[off+3] = float64(warmup) / float64(budget)
	}
	off += len(contextNames)
	r := profileRates(profile)
	dst[off+0] = r.mem * float64(cfg.MemLatency)
	dst[off+1] = r.mem * float64(cfg.L2.Latency)
	dst[off+2] = r.line * float64(cfg.MemLatency)
	dst[off+3] = r.page * float64(cfg.WalkLatency)
	dst[off+4] = r.branch * float64(cfg.BranchResolveLatency)
	if cfg.VSXPipes > 0 {
		dst[off+5] = r.vsx / float64(cfg.VSXPipes)
	}
	dst[off+6] = r.mma * (1 - b2f(cfg.HasMMA))
	if cfg.MMAThroughput > 0 {
		dst[off+7] = r.mma / float64(cfg.MMAThroughput)
	}
	if cfg.LoadPorts > 0 {
		dst[off+8] = r.load * s / float64(cfg.LoadPorts)
	}
	if cfg.StorePorts > 0 {
		dst[off+9] = r.store * s / float64(cfg.StorePorts)
	}
	if w := lg2(float64(cfg.InstrTableEntries)); w > 0 {
		dst[off+10] = s / w
	}
	return dst
}
