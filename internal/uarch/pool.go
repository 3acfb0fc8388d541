package uarch

import (
	"sync"

	"power10sim/internal/isa"
)

// The core pool eliminates the dominant steady-state allocation of the
// simulator: one fully-wired core (ROB, rename tables, caches, predictors,
// scheduler arrays) per Simulate call. A pooled core is reused directly when
// the requested config has identical parameters (Config is flat and
// comparable); otherwise it is dropped and a fresh core is built. Experiment
// sweeps run thousands of simulations over a handful of configs, so the
// match rate is high in exactly the workloads that matter.

var corePool sync.Pool

// getCore returns a core ready to run cfg with nthreads streams, reusing a
// pooled core when its construction-time parameters match.
func getCore(cfg *Config, nthreads int) *core {
	if v := corePool.Get(); v != nil {
		c := v.(*core)
		if c.cfgVal == *cfg {
			c.cfg = cfg
			c.reset(nthreads)
			return c
		}
		// Built for different parameters: drop it and start over.
	}
	c := newCore(cfg)
	c.reset(nthreads)
	return c
}

// putCore returns a core to the pool, dropping references the caller owns.
func putCore(c *core) {
	for _, t := range c.threadsAll {
		t.stream = nil
		t.prog = nil
	}
	c.opts = simOptions{}
	c.upsetOutcome = nil
	corePool.Put(c)
}

// newCore builds a core with every structure sized from the config. All
// capacities are worst-case bounds, so the run loop never grows them.
func newCore(cfg *Config) *core {
	c := &core{
		cfg:        cfg,
		cfgVal:     *cfg,
		components: newComponents(cfg),
		rob:        make([]robEntry, cfg.InstrTableEntries),
		drainQ:     make([]drainEntry, cfg.StoreQueueEntries+cfg.RetireWidth),
		lmq:        make([]uint64, 0, cfg.LoadMissQueue),
		schedLoc:   make([]uint8, cfg.InstrTableEntries),
		schedNext:  make([]int32, cfg.InstrTableEntries),
		waiterHead: make([]int32, cfg.InstrTableEntries),
		readySet:   make([]uint64, (cfg.InstrTableEntries+63)/64),
	}
	c.pendingFill.init(4 * cfg.LoadMissQueue)
	c.sqForward.init(cfg.StoreQueueEntries)
	n := cfg.SMTMax
	c.renGPR = make([][isa.NumGPR]depRef, n)
	c.renVSR = make([][isa.NumVSR]depRef, n)
	c.renACC = make([][isa.NumACC]depRef, n)
	c.threadsAll = make([]*threadState, n)
	for t := 0; t < n; t++ {
		c.threadsAll[t] = &threadState{
			id:            t,
			buf:           make([]fetchedInst, cfg.FetchBufEntries+cfg.FetchWidth),
			waitingBranch: -1,
		}
	}
	return c
}

// reset restores a core to its construction-time initial state for nthreads
// hardware threads. The ROB array is deliberately NOT cleared: stale entries
// are unreachable (rename tables reset to noDep, every walk is bounded by
// head..count, and allocate fully overwrites a slot before use), and stale
// waiter lists cannot exist because only un-issued producers carry waiters
// and un-issued producers never retire.
func (c *core) reset(nthreads int) {
	c.act = Activity{}
	c.components.reset()
	c.head, c.count = 0, 0
	c.seq = 0
	c.notIssued = 0
	for t := 0; t < nthreads; t++ {
		for i := range c.renGPR[t] {
			c.renGPR[t][i] = noDep
		}
		for i := range c.renVSR[t] {
			c.renVSR[t][i] = noDep
		}
		for i := range c.renACC[t] {
			c.renACC[t][i] = noDep
		}
		ts := c.threadsAll[t]
		ts.stream = nil
		ts.prog = nil
		ts.bufHead, ts.bufLen = 0, 0
		ts.done = false
		ts.blockedUntil = 0
		ts.pendingMispred = false
		ts.waitingBranch = -1
		ts.waitingSeq = 0
		ts.branchFetchCycle = 0
	}
	c.threads = c.threadsAll[:nthreads]
	c.lqCount, c.sqCount = 0, 0
	c.drainHead, c.drainLen = 0, 0
	c.lmq = c.lmq[:0]
	c.pendingFill.reset()
	c.sqForward.reset()
	c.l2PortFree = 0
	c.now = 0
	c.busy = [NumUnits]bool{}
	c.upsetOutcome = nil
	c.naive = false
	clear(c.readySet)
	c.nready = 0
	for i := range c.wheel {
		c.wheel[i] = -1
	}
	c.wheelOcc = [wakeWords]uint64{}
	clear(c.schedLoc)
	for i := range c.waiterHead {
		c.waiterHead[i] = -1
	}
	c.opts = simOptions{}
	c.samplePrev = Activity{}
	c.sampleStart = 0
}
