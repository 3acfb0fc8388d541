package uarch

import (
	"fmt"

	"power10sim/internal/trace"
)

// components are the core structures whose contents outlive the
// instructions in flight: the I-cache, the data hierarchy, the ERAT/TLB, the
// branch predictors and the prefetcher streams. Functional warming trains
// exactly these, so the core and WarmState share the type and reset and copy
// are written once.
type components struct {
	bp   *BPred
	l1i  *Cache
	hier *Hierarchy
	mmu  *MMU
	pf   *Prefetcher
}

func newComponents(cfg *Config) components {
	return components{
		bp:   NewBPred(cfg.BPred),
		l1i:  NewCache(cfg.L1I),
		hier: NewHierarchy(cfg),
		mmu:  NewMMU(cfg),
		pf:   NewPrefetcher(cfg.PrefetchStreams),
	}
}

// reset restores the just-constructed state: cold contents, zero counters.
func (s *components) reset() {
	s.bp.Reset()
	s.l1i.Reset()
	s.hier.Reset()
	s.mmu.Reset()
	s.pf.Reset()
}

// resetStats clears every counter, leaving the contents warm.
func (s *components) resetStats() {
	s.l1i.ResetStats()
	s.hier.ResetStats()
	s.mmu.ResetStats()
	s.bp.ResetStats()
	s.pf.Prefetches = 0
	s.pf.Trained = 0
}

// copyFrom makes s's contents equal to src's, in place; counters are not
// copied. Both sides must be built from the same Config.
func (s *components) copyFrom(src *components) {
	s.bp.copyFrom(src.bp)
	s.l1i.copyFrom(src.l1i)
	s.hier.copyFrom(src.hier)
	s.mmu.copyFrom(src.mmu)
	s.pf.copyFrom(src.pf)
}

// WarmState is functional-warming state for one Config: the I-cache, data
// hierarchy, ERAT/TLB, branch predictor and prefetcher contents a core would
// hold after executing the warmed instructions, trained at functional cost
// (orders of magnitude cheaper than timed simulation) and without the timing
// model. It is the sampling engine's long-range warmup: a representative
// window simulated WithWarmState starts from in-context cache and predictor
// contents instead of cold arrays.
//
// Warming is incremental: Warm(a) then Warm(b) on the same thread leaves the
// state Warm(a followed by b) would, so one state can be advanced forward
// through a trace and copied at each window start.
type WarmState struct {
	cfg Config
	components
	// clock is each thread's pseudo-clock: one tick per record warmed on
	// that thread, so a thread's first record ticks 1 whatever the other
	// threads warmed before it. It only ages prefetcher streams.
	clock [len(Activity{}.PerThread)]uint64
}

// NewWarmState returns a cold warm state for cfg, holding what a freshly
// built core holds.
func NewWarmState(cfg *Config) *WarmState {
	return &WarmState{cfg: *cfg, components: newComponents(cfg)}
}

// Reset returns w to the cold state NewWarmState built.
func (w *WarmState) Reset() {
	w.components.reset()
	clear(w.clock[:])
}

// CopyFrom makes w equal to src without allocating; warming either one
// afterwards leaves the other unchanged. It panics if src was built from a
// different Config, whose structures have other sizes.
func (w *WarmState) CopyFrom(src *WarmState) {
	if w.cfg != src.cfg {
		panic("uarch: WarmState.CopyFrom between different configs")
	}
	w.components.copyFrom(&src.components)
	w.clock = src.clock
}

// Warm drains s through the stateful structures on the given hardware
// thread: every record touches the I-cache, branches train that thread's
// predictor context, and memory operations translate, access the data
// hierarchy and train the prefetcher. Cache and prefetcher state is shared
// by all threads.
func (w *WarmState) Warm(s trace.Stream, thread int) error {
	if thread < 0 || thread >= w.cfg.SMTMax {
		return fmt.Errorf("uarch: warming thread %d of SMT%d", thread, w.cfg.SMTMax)
	}
	lineBytes := uint64(w.cfg.L1D.LineBytes)
	prog := s.Program()
	now := w.clock[thread]
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		now++
		cls := prog.Code[d.Idx].Class()
		w.l1i.Access(d.PC)
		if cls.IsBranch() {
			w.bp.Observe(thread, d.PC, cls, d.Taken, d.NextPC)
			continue
		}
		if cls.IsMem() {
			w.mmu.Translate(d.EA)
			if _, lvl := w.hier.Access(d.EA); lvl != LvlL1 && cls.IsLoad() {
				for _, pl := range w.pf.OnMiss(d.EA/lineBytes, now) {
					w.hier.InsertLine(pl * lineBytes)
				}
			}
		}
	}
	w.clock[thread] = now
	if err := trace.StreamErr(s); err != nil {
		return fmt.Errorf("uarch: functional warming thread %d: %w", thread, err)
	}
	return nil
}

// WithWarmState starts the run from ws's contents instead of cold
// structures: the core copies ws in at cycle 0 and discards the counters
// warming accumulated, so only the state survives. ws is read, never
// written, so one state can seed many runs. Simulate fails if ws was built
// from a different Config. WithWarmup composes on top for a short timed
// warmup of pipeline and queue occupancy.
func WithWarmState(ws *WarmState) SimOption {
	return func(o *simOptions) { o.warm = ws }
}
