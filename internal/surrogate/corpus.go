package surrogate

import (
	"fmt"
	"sort"
	"sync"

	"power10sim/internal/runlog"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// ProfileBudget is the fixed functional-execution budget for workload
// profiles. It is deliberately independent of any record's simulation budget:
// the profile is a workload trait shared by every row that runs the workload,
// and a fixed budget keeps it bit-identical across training, prediction, and
// export no matter which campaign produced the ledger.
const ProfileBudget = 30000

// Row is one training example: the identity and feature inputs of a real
// simulation plus its measured targets in natural space.
type Row struct {
	Key      string
	Config   string
	Workload string
	SMT      int
	Budget   uint64
	Warmup   uint64
	// Cfg is the resolved configuration and Profile the workload's behavior
	// vector (sampling.Profile at ProfileBudget).
	Cfg     *uarch.Config
	Profile []float64
	// Measured targets.
	CPI, Power, PowerClock, PowerSwitching, PowerArray, PowerLeakage float64
}

// CorpusStats accounts for every ledger record the loader saw, so a training
// run can prove no silent shrinkage: Used plus the skip counters equals
// Scanned, and the embedded ScanStats covers the sub-record (corrupt line /
// wrong schema / torn tail) level.
type CorpusStats struct {
	Scanned int
	Used    int
	// Skip reasons, disjoint and checked in this order.
	SkippedFailed          int // records with a terminal error
	SkippedUpset           int // fault-injection runs (corrupted timing)
	SkippedPredicted       int // predicted records from earlier builds: never train on model output
	SkippedDuplicate       int // same content key seen again (cache-tier restatements)
	SkippedUnknownConfig   int // config name the resolver cannot reconstruct
	SkippedUnknownWorkload int // workload name the profiler cannot reconstruct
	SkippedDegenerate      int // zero cycles/instructions or non-positive targets
	Scan                   runlog.ScanStats
}

// Corpus is a loaded training set: deduplicated, ground-truth-only rows plus
// the workload vocabulary they span.
type Corpus struct {
	Rows  []Row
	Vocab []string // sorted unique workload names across Rows
	Stats CorpusStats
}

// CorpusOptions configures ledger loading.
type CorpusOptions struct {
	// Configs resolves a ledger config name to its full parameter set. The
	// default, uarch.ResolveConfigName, covers every named config the
	// experiment harness uses. A record whose name does not resolve falls
	// back to the spec it carries inline (explorer design-space points); one
	// with neither is skipped and counted.
	Configs func(name string) *uarch.Config
	// Profiles resolves a workload name to its sampling.Profile vector. The
	// default functionally executes the catalog workload at ProfileBudget
	// (cached per name).
	Profiles func(name string) ([]float64, bool)
}

// CatalogProfiler profiles workloads from the standard catalog, caching each
// profile (one functional execution per distinct workload name). Safe for
// concurrent use.
func CatalogProfiler() func(name string) ([]float64, bool) {
	catalog := workloads.Catalog()
	var mu sync.Mutex
	cache := map[string][]float64{}
	return func(name string) ([]float64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if p, ok := cache[name]; ok {
			return p, p != nil
		}
		w, ok := catalog[name]
		if !ok {
			cache[name] = nil
			return nil, false
		}
		p, err := sampling.Profile(w.Prog, ProfileBudget)
		if err != nil {
			p = nil
		}
		cache[name] = p
		return p, p != nil
	}
}

// LoadCorpus reads a p10runlog-v1 ledger directory into a training corpus.
// Only executed ground truth qualifies: failed, fault-injected, and
// predicted records are skipped (the last, which only earlier builds wrote,
// so the model can never train on its own output), cache-tier records and
// repeated content keys are deduplicated, and unresolvable config or
// workload names are counted out. Corrupt lines, wrong-schema records, and a
// torn tail are tolerated by the underlying scanner and surface in
// Stats.Scan.
func LoadCorpus(dir string, opts CorpusOptions) (*Corpus, error) {
	recs, scan, err := runlog.ScanDir(dir)
	if err != nil {
		return nil, fmt.Errorf("surrogate: scan ledger: %w", err)
	}
	return CorpusFromRecords(recs, scan, opts), nil
}

// CorpusFromRecords builds a corpus from already-scanned ledger records
// (LoadCorpus over a directory is the common entry). Rows come back sorted
// by content key: Train depends on row order, and a ledger lists parallel
// runs in the order they completed, so the same campaign must not train a
// different model on every replay.
func CorpusFromRecords(recs []runlog.Record, scan runlog.ScanStats, opts CorpusOptions) *Corpus {
	if opts.Configs == nil {
		opts.Configs = uarch.ResolveConfigName
	}
	if opts.Profiles == nil {
		opts.Profiles = CatalogProfiler()
	}
	c := &Corpus{}
	c.Stats.Scan = scan
	seen := map[string]bool{}
	vocab := map[string]bool{}
	for _, r := range recs {
		c.Stats.Scanned++
		switch {
		case r.Err != "":
			c.Stats.SkippedFailed++
		case r.Upset:
			c.Stats.SkippedUpset++
		case r.Predicted || r.Tier == runlog.TierSurrogate:
			c.Stats.SkippedPredicted++
		case seen[r.Key]:
			// Memo/disk/fabric records restate exact results, so any tier is
			// ground truth — but one content key trains once, or hot baseline
			// points would be double-weighted by their cache hits.
			c.Stats.SkippedDuplicate++
		case r.Cycles == 0 || r.Instructions == 0 || r.CPI <= 0 || r.PowerTotal <= 0:
			c.Stats.SkippedDegenerate++
		default:
			cfg := opts.Configs(r.Config)
			if cfg == nil && r.Spec != nil {
				// Design-space points carry their full spec inline; the
				// record is self-describing even though the name isn't in
				// any catalog.
				cfg = r.Spec
			}
			if cfg == nil {
				c.Stats.SkippedUnknownConfig++
				continue
			}
			profile, ok := opts.Profiles(r.Workload)
			if !ok {
				c.Stats.SkippedUnknownWorkload++
				continue
			}
			seen[r.Key] = true
			cyc := float64(r.Cycles)
			c.Rows = append(c.Rows, Row{
				Key:            r.Key,
				Config:         r.Config,
				Workload:       r.Workload,
				SMT:            r.SMT,
				Budget:         r.Budget,
				Warmup:         r.Warmup,
				Cfg:            cfg,
				Profile:        profile,
				CPI:            r.CPI,
				Power:          r.PowerTotal,
				PowerClock:     r.EnergyClock / cyc,
				PowerSwitching: r.EnergySwitching / cyc,
				PowerArray:     r.EnergyArray / cyc,
				PowerLeakage:   r.EnergyLeakage / cyc,
			})
			vocab[r.Workload] = true
			c.Stats.Used++
		}
	}
	sort.Slice(c.Rows, func(a, b int) bool { return c.Rows[a].Key < c.Rows[b].Key })
	for w := range vocab {
		c.Vocab = append(c.Vocab, w)
	}
	sort.Strings(c.Vocab)
	return c
}
