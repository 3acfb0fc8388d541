package uarch

import (
	"context"
	"errors"
	"fmt"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
)

// Result is the outcome of one core simulation.
type Result struct {
	Config   *Config
	SMT      int
	Activity Activity
	// Upset reports what an injected upset hit (nil when no injection was
	// requested via WithUpset).
	Upset *UpsetOutcome
}

// IPC is shorthand for the activity IPC.
func (r *Result) IPC() float64 { return r.Activity.IPC() }

// depRef names a producing in-flight instruction.
type depRef struct {
	seq  uint64
	slot int32
	acc  bool // dependency through an MMA accumulator
}

var noDep = depRef{slot: -1}

// robEntry is one slot of the instruction (completion) table. Its counters
// are as narrow as their bounds allow (a fused pair sums two instructions'
// flops, MACs and bytes; SMTMax is at most 8), so a slot fits in 120 bytes.
type robEntry struct {
	seq        uint64
	pc         uint64
	ea         uint64
	issueCycle uint64
	doneCycle  uint64
	deps       [4]depRef
	flops      uint16
	intMACs    uint16
	op         isa.Opcode
	cls        isa.Class
	thread     uint8
	memBytes   uint8
	ndeps      uint8
	archCount  uint8 // architectural instructions folded in (2 when fused)
	valid      bool
	issued     bool
	mispred    bool
}

type fetchedInst struct {
	d       isa.DynInst
	in      *isa.Inst
	mispred bool
}

// threadState holds one hardware thread's front-end state. The fetch buffer
// is a fixed-capacity ring (FetchBufEntries + FetchWidth slots) so the
// steady state allocates nothing.
type threadState struct {
	id               int
	stream           trace.Stream
	prog             *isa.Program
	buf              []fetchedInst // ring buffer
	bufHead          int
	bufLen           int
	done             bool
	blockedUntil     uint64 // fetch blocked (icache miss / redirect)
	pendingMispred   bool   // a fetched-but-unresolved mispredicted branch exists
	waitingBranch    int    // ROB slot of unresolved mispredicted branch, -1 if none
	waitingSeq       uint64
	branchFetchCycle uint64
}

// wrap reduces i, at most one ring length past its end, to a ring index.
// The rings (ROB, fetch buffers, store drain queue) wrap by comparison: a
// modulo by a non-constant length costs a division per access.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

func (t *threadState) bufAt(i int) *fetchedInst {
	return &t.buf[wrap(t.bufHead+i, len(t.buf))]
}

func (t *threadState) bufPush(f fetchedInst) {
	t.buf[wrap(t.bufHead+t.bufLen, len(t.buf))] = f
	t.bufLen++
}

func (t *threadState) bufPop(n int) {
	t.bufHead = wrap(t.bufHead+n, len(t.buf))
	t.bufLen -= n
}

type drainEntry struct {
	addr  uint64
	bytes int
}

type core struct {
	cfg *Config
	// cfgVal is a copy of *cfg taken at construction: a pooled core is
	// reusable without reconstruction only for a config with identical
	// parameters (Config is a flat comparable struct).
	cfgVal Config
	act    Activity

	components // bp, l1i, hier, mmu, pf: what functional warming trains

	rob       []robEntry
	head      int
	count     int
	seq       uint64
	notIssued int

	renGPR [][isa.NumGPR]depRef
	renVSR [][isa.NumVSR]depRef
	renACC [][isa.NumACC]depRef

	lqCount, sqCount int
	// drainQ is a ring of retired stores awaiting L1 commit. Capacity
	// StoreQueueEntries+RetireWidth: drained entries still hold their SQ
	// slot, so occupancy never exceeds the store queue.
	drainQ    []drainEntry
	drainHead int
	drainLen  int
	lmq       []uint64 // completion cycles of outstanding L1D misses

	// pendingFill maps cache lines with in-flight L1 fills to their fill
	// completion cycle: subsequent loads to the line wait for the fill
	// (secondary misses) instead of hitting instantly.
	pendingFill cycleMap
	// sqForward maps addresses of stores still in the store queue to the
	// cycle their data became available: younger loads to the same address
	// forward from the queue instead of accessing the L1.
	sqForward cycleMap
	// l2PortFree models L2 read-port occupancy: each line fill holds the
	// port for l2FillOccupancy cycles.
	l2PortFree uint64

	// threadsAll is the SMTMax-sized backing store; threads aliases its
	// first nthreads entries for the current run.
	threadsAll []*threadState
	threads    []*threadState
	now        uint64

	busy [NumUnits]bool

	// upsetOutcome records what an injected upset hit (nil until applied).
	upsetOutcome *UpsetOutcome

	// Wakeup scheduler state (sched.go). naive selects the retained
	// reference scan (withNaiveSched) used by the equivalence tests.
	naive      bool
	schedLoc   []uint8
	schedNext  []int32 // next slot on the same waiter list or wheel bucket
	waiterHead []int32
	readySet   []uint64 // the ready set: one bit per ROB slot
	nready     int
	wheel      [wakeHorizon]int32 // wake-wheel bucket heads, -1 when empty
	wheelOcc   [wakeWords]uint64  // one bit per non-empty bucket

	// Sampler window bookkeeping.
	samplePrev  Activity
	sampleStart uint64

	// opts is the applied option set; living inside the pooled core keeps
	// the options from escaping to the heap on every run.
	opts simOptions
}

// SimOption adjusts a simulation run.
type SimOption func(*simOptions)

type simOptions struct {
	warmupInsts  uint64
	measureLimit uint64
	warm         *WarmState
	sampleEvery  uint64
	sampleFn     func(CycleSample)
	upset        *Upset
	ctx          context.Context
	strictLimit  bool
	naiveSched   bool
}

// WithWarmup discards all statistics gathered before the first n retired
// instructions: caches, predictors and queues stay warm but counters restart.
// This is the paper's "region of interest" measurement-window mechanism.
func WithWarmup(n uint64) SimOption {
	return func(o *simOptions) { o.warmupInsts = n }
}

// WithMeasureLimit ends the run once n post-warmup instructions have retired
// (quantized up to one retire group), with successor instructions still in
// flight. It is the measurement-window *end* bound, the counterpart of
// WithWarmup's start bound: a sampled interval simulated with a suffix of its
// successor instructions and a measure limit at the interval boundary keeps
// its tail cycles overlapped with real downstream work, instead of billing
// the window a whole-pipeline drain that in-context execution would hide.
// Zero disables the limit (run to stream exhaustion).
func WithMeasureLimit(n uint64) SimOption {
	return func(o *simOptions) { o.measureLimit = n }
}

// CycleSample is one observation window delivered to a WithSampler hook:
// the window's end cycle and the activity delta accumulated inside it.
type CycleSample struct {
	// Cycle is the window's exclusive end cycle (relative to simulation
	// start; warmup resets restart the window but not this clock).
	Cycle uint64
	// Delta is the activity of this window only, with Delta.Cycles set to
	// the window length.
	Delta Activity
}

// WithSampler invokes fn with a CycleSample every `every` cycles. It is the
// core's one per-window hook: cycle-resolved IPC/occupancy/power trace
// tracks, the APEX batch extraction, the Tracepoints epoch counters and the
// power-model training windows are all built on it. The final partial
// window is also delivered. every == 0 or a nil fn disables sampling; the
// disabled path adds no per-cycle work beyond one nil check (guarded by
// BenchmarkCoreTelemetryOff).
func WithSampler(every uint64, fn func(CycleSample)) SimOption {
	return func(o *simOptions) {
		o.sampleEvery = every
		o.sampleFn = fn
	}
}

// withNaiveSched selects the original O(window) ready-scan issue loop and
// disables the next-event cycle skip. It exists as the schedRef reference
// implementation for the scheduler-equivalence tests.
func withNaiveSched() SimOption {
	return func(o *simOptions) { o.naiveSched = true }
}

// Simulate runs the configured core over the given per-thread streams until
// all streams are exhausted and the pipeline drains, or maxCycles elapses.
func Simulate(cfg *Config, streams []trace.Stream, maxCycles uint64, opts ...SimOption) (*Result, error) {
	res := &Result{}
	if err := SimulateInto(res, cfg, streams, maxCycles, opts...); err != nil {
		return nil, err
	}
	return res, nil
}

// SimulateInto is Simulate writing into a caller-provided Result, the
// allocation-free entry point: together with the internal core pool it lets
// a steady-state caller (the benchmark loop, the runner) simulate repeatedly
// without per-run garbage.
func SimulateInto(res *Result, cfg *Config, streams []trace.Stream, maxCycles uint64, opts ...SimOption) error {
	if len(streams) == 0 {
		return errors.New("uarch: no instruction streams")
	}
	if len(streams) > cfg.SMTMax {
		return fmt.Errorf("uarch: %d threads exceeds SMT%d", len(streams), cfg.SMTMax)
	}
	c := getCore(cfg, len(streams))
	for _, f := range opts {
		f(&c.opts)
	}
	c.naive = c.opts.naiveSched
	for t, s := range streams {
		c.threads[t].stream = s
		c.threads[t].prog = s.Program()
	}
	err := c.run(maxCycles)
	// A run whose VM faulted must not read as a short, successful one.
	for t := 0; t < len(streams) && err == nil; t++ {
		if e := trace.StreamErr(streams[t]); e != nil {
			err = fmt.Errorf("uarch: functional execution of thread %d: %w", t, e)
		}
	}
	if err == nil {
		res.Config = cfg
		res.SMT = len(streams)
		res.Activity = c.act
		res.Upset = c.upsetOutcome
	}
	putCore(c)
	return err
}

func (c *core) run(maxCycles uint64) error {
	o := &c.opts
	if ws := o.warm; ws != nil {
		if ws.cfg != c.cfgVal {
			return fmt.Errorf("uarch: warm state built for a different config (%s) than the simulated %s",
				ws.cfg.Name, c.cfg.Name)
		}
		c.components.copyFrom(&ws.components)
		c.resetStats() // warming is stat-free: only the state survives
	}
	lastProgress := uint64(0)
	lastRetired := uint64(0)
	warmed := o.warmupInsts == 0
	warmStart := uint64(0)
	c.samplePrev = Activity{}
	c.sampleStart = 0
	sampling := o.sampleFn != nil && o.sampleEvery > 0
	// noProgressWindow is the forward-progress watchdog: a simulation that
	// retires nothing for this many cycles is wedged (see HangError).
	checkCtx := o.ctx != nil
	for c.now = 0; c.now < maxCycles; c.now++ {
		if o.upset != nil && c.now == o.upset.Cycle {
			c.applyUpset(o.upset)
		}
		if checkCtx && c.now&(ctxCheckInterval-1) == 0 {
			if err := o.ctx.Err(); err != nil {
				c.syncActivity()
				return &CancelError{Cfg: c.cfg.Name, Cycle: c.now,
					Retired: c.act.Instructions, Err: err}
			}
		}
		if !c.naive {
			if k := c.idleSkip(o, lastProgress, maxCycles, checkCtx); k > 0 {
				c.now += k - 1 // the loop increment lands on the event cycle
				continue
			}
		}
		c.busy = [NumUnits]bool{}
		c.retire()
		c.drainStores()
		c.issue()
		c.dispatch()
		c.fetch()
		for u := Unit(0); u < NumUnits; u++ {
			if c.busy[u] {
				c.act.UnitBusy[u]++
			}
		}
		if !warmed && c.act.Instructions >= o.warmupInsts {
			warmed = true
			warmStart = c.now + 1
			c.resetStats()
			c.samplePrev = Activity{}
			c.sampleStart = c.now + 1
		}
		if o.measureLimit > 0 && warmed && c.act.Instructions >= o.measureLimit {
			c.now++
			break
		}
		if sampling && c.now+1-c.sampleStart >= o.sampleEvery {
			c.emitSample(o, c.now+1)
		}
		if c.finished() {
			c.now++
			break
		}
		if c.act.Instructions != lastRetired {
			lastRetired = c.act.Instructions
			lastProgress = c.now
		} else if c.now-lastProgress > noProgressWindow {
			c.syncActivity()
			return c.hangError("no retirement progress", noProgressWindow)
		}
	}
	if o.strictLimit && !c.finished() {
		c.syncActivity()
		return c.hangError("cycle limit exhausted", 0)
	}
	if sampling && c.now > c.sampleStart {
		c.emitSample(o, c.now)
	}
	c.syncActivity()
	c.act.Cycles = c.now - warmStart
	return nil
}

func (c *core) emitSample(o *simOptions, end uint64) {
	c.syncActivity()
	d := c.act.Sub(&c.samplePrev)
	d.Cycles = end - c.sampleStart
	o.sampleFn(CycleSample{Cycle: end, Delta: d})
	c.samplePrev = c.act
	c.samplePrev.Cycles = 0
	c.sampleStart = end
}

// noProgressWindow is how many cycles may elapse without a retirement before
// the simulation is declared wedged.
const noProgressWindow = 100_000

// syncActivity copies component-local counters into the activity record.
func (c *core) syncActivity() {
	c.act.Prefetches = c.pf.Prefetches
	c.act.ICacheAccesses = c.l1i.Accesses
	c.act.ICacheMisses = c.l1i.Misses
	c.act.L1DAccesses = c.hier.L1D.Accesses
	c.act.L1DMisses = c.hier.L1D.Misses
	c.act.L2Accesses = c.hier.L2Accesses
	c.act.L2Misses = c.hier.L2Misses
	c.act.L3Accesses = c.hier.L3Accesses
	c.act.L3Misses = c.hier.L3Misses
	c.act.MemAccesses = c.hier.MemAccesses
	c.act.TLBLookups = c.mmu.TLBLookups
	c.act.TLBMisses = c.mmu.TLBMisses
	c.act.BranchMispredicts = c.bp.Mispredicts
	c.act.SecondPredHits = c.bp.SecondHits
}

// resetStats clears all accumulated counters at the warmup boundary while
// leaving cache, predictor and queue state warm.
func (c *core) resetStats() {
	c.act = Activity{}
	c.components.resetStats()
}

func (c *core) finished() bool {
	if c.count != 0 || c.drainLen != 0 {
		return false
	}
	for _, t := range c.threads {
		if !t.done || t.bufLen != 0 {
			return false
		}
	}
	return true
}

// ready reports whether a dependency's value is available at cycle now.
func (c *core) ready(d depRef) bool {
	if d.slot < 0 {
		return true
	}
	e := &c.rob[d.slot]
	if !e.valid || e.seq != d.seq {
		return true // producer retired
	}
	if !e.issued {
		return false
	}
	if d.acc && c.cfg.MMAAccumForwarding && e.cls == isa.ClassMMA {
		// Accumulators live inside the MMA unit: a dependent ger can chain
		// one cycle behind its producer instead of waiting full latency.
		return e.issueCycle+1 <= c.now
	}
	return e.doneCycle <= c.now
}

func (c *core) entryReady(e *robEntry) bool {
	for i := 0; i < int(e.ndeps); i++ {
		if !c.ready(e.deps[i]) {
			return false
		}
	}
	return true
}

// retire drains completed entries from the ROB head in order.
func (c *core) retire() {
	retired := 0
	for retired < c.cfg.RetireWidth && c.count > 0 {
		e := &c.rob[c.head]
		if !e.valid || !e.issued || e.doneCycle > c.now {
			break
		}
		if e.cls.IsStore() {
			c.drainQ[wrap(c.drainHead+c.drainLen, len(c.drainQ))] = drainEntry{addr: e.ea, bytes: int(e.memBytes)}
			c.drainLen++
			// SQ entry freed when drained.
		}
		if e.cls.IsLoad() {
			c.lqCount--
		}
		c.act.Instructions += uint64(e.archCount)
		c.act.InternalOps++
		c.act.PerThread[e.thread&7] += uint64(e.archCount)
		c.act.Flops += uint64(e.flops)
		c.act.IntMACs += uint64(e.intMACs)
		e.valid = false
		c.head = wrap(c.head+1, len(c.rob))
		c.count--
		retired++
	}
	if retired > 0 {
		c.busy[UnitCompletion] = true
	}
}

// drainStores writes retired stores to the L1/L2, gathering consecutive
// addresses when the config supports it.
func (c *core) drainStores() {
	drains := 2 // store-queue retirement bandwidth (entries -> L1) per cycle
	for drains > 0 && c.drainLen > 0 {
		e := c.drainQ[c.drainHead]
		n := 1
		if c.cfg.StoreGather && c.drainLen > 1 {
			nxt := c.drainQ[wrap(c.drainHead+1, len(c.drainQ))]
			if nxt.addr == e.addr+uint64(e.bytes) && e.bytes+nxt.bytes <= 32 {
				n = 2
				c.act.SQGathered++
			}
		}
		c.hier.Access(e.addr) // store commit access (latency hidden by SQ)
		if !c.cfg.EATaggedL1 {
			c.act.DERATLookups++
			c.mmu.Translate(e.addr)
		}
		c.sqForward.del(e.addr) // the store left the queue
		c.drainHead = wrap(c.drainHead+n, len(c.drainQ))
		c.drainLen -= n
		c.sqCount -= n
		drains--
		c.busy[UnitLSU] = true
	}
}

// issuePorts is one cycle's issue-port budget.
type issuePorts struct {
	intAvail, vsxAvail, brAvail, ldAvail, stAvail, mmaAvail int
}

func (c *core) newPorts() issuePorts {
	return issuePorts{
		intAvail: c.cfg.IntPipes,
		vsxAvail: c.cfg.VSXPipes,
		brAvail:  c.cfg.BranchPipes,
		ldAvail:  c.cfg.LoadPorts,
		stAvail:  c.cfg.StorePorts,
		mmaAvail: c.cfg.MMAThroughput,
	}
}

// issue selects ready instructions oldest-first and sends them to ports.
func (c *core) issue() {
	if c.naive {
		c.issueNaive()
	} else {
		c.issueWakeup()
	}
}

// issueNaive is the retained reference scheduler (schedRef): a full window
// scan per cycle, exactly the pre-wakeup behaviour. The equivalence tests
// drive it against issueWakeup.
func (c *core) issueNaive() {
	ports := c.newPorts()
	issuedAny := 0
	for i, slot := 0, c.head; i < c.count; i, slot = i+1, wrap(slot+1, len(c.rob)) {
		e := &c.rob[slot]
		if !e.valid || e.issued {
			continue
		}
		if !c.entryReady(e) {
			continue
		}
		if !c.tryIssue(slot, &ports) {
			continue
		}
		issuedAny++
	}
	if issuedAny > 0 {
		c.busy[UnitIssue] = true
	}
	if c.cfg.ReservationStations && c.notIssued > 0 {
		// Reservation-station wakeup: every waiting entry compares its tags
		// against completion broadcasts each cycle (the CAM power the
		// unified sliced register file removes).
		c.act.RSWakeups += uint64(c.notIssued)
	}
}

// tryIssue attempts to issue the ready entry in slot against the cycle's
// port budget; false means no port of the entry's class was left.
func (c *core) tryIssue(slot int, p *issuePorts) bool {
	e := &c.rob[slot]
	var port *int
	var unit Unit
	switch e.cls {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv, isa.ClassNop, isa.ClassSystem:
		port, unit = &p.intAvail, UnitFXU
	case isa.ClassBranch, isa.ClassCondBranch, isa.ClassIndirBranch:
		port, unit = &p.brAvail, UnitFXU
	case isa.ClassVSXALU, isa.ClassVSXFP, isa.ClassVSXFMA:
		port, unit = &p.vsxAvail, UnitVSU
	case isa.ClassMMA:
		port, unit = &p.mmaAvail, UnitMMA
	case isa.ClassMMAMove:
		port, unit = &p.vsxAvail, UnitMMA
	case isa.ClassLoad, isa.ClassVSXLoad, isa.ClassVSXPairLoad:
		port, unit = &p.ldAvail, UnitLSU
	case isa.ClassStore, isa.ClassVSXStore, isa.ClassVSXPairStore:
		port, unit = &p.stAvail, UnitLSU
	default:
		port, unit = &p.intAvail, UnitFXU
	}
	if *port <= 0 {
		return false
	}
	*port--
	e.issued = true
	e.issueCycle = c.now
	lat := c.cfg.Latency[e.cls]
	switch {
	case e.cls.IsLoad():
		if rdy := c.sqForward.get(e.ea); rdy != 0 {
			// Store-to-load forwarding from the store queue; if the
			// store's data is still in flight the load waits for it.
			lat = 2
			if rdy > c.now {
				lat += int(rdy - c.now)
			}
			c.act.StoreForwards++
		} else {
			lat = c.loadLatency(e.ea)
		}
	case e.cls.IsStore():
		lat = 1 // address generation; commit happens post-retire
		c.sqForward.put(e.ea, c.now+1)
	case e.cls == isa.ClassMMA:
		lat = c.cfg.MMALatency
	}
	e.doneCycle = c.now + uint64(lat)
	c.notIssued--
	c.busy[unit] = true
	c.act.IssueByClass[e.cls]++
	c.act.RegReads += uint64(e.ndeps)
	c.act.RegWrites++
	if e.cls == isa.ClassMMA {
		c.act.MMAOps++
		c.act.MMAActiveCycles += uint64(c.cfg.MMALatency)
	}
	if e.cls == isa.ClassMMAMove {
		c.act.MMAMoves++
	}
	if e.mispred {
		// Resolve the redirect: the blocked thread resumes after the
		// branch executes plus the front-end refill.
		t := c.threads[e.thread]
		if t.waitingBranch == slot && t.waitingSeq == e.seq {
			resolve := e.doneCycle + uint64(c.cfg.BranchResolveLatency)/2
			t.blockedUntil = resolve
			t.waitingBranch = -1
			t.pendingMispred = false
			window := resolve - t.branchFetchCycle
			if window > uint64(c.cfg.BranchResolveLatency*2) {
				window = uint64(c.cfg.BranchResolveLatency * 2)
			}
			wasted := window * uint64(c.cfg.FetchWidth) / 2
			c.act.WrongPathSlots += wasted
			c.act.FlushedInsts += wasted * 3 / 4
		}
	}
	return true
}

// l2FillOccupancy is the number of cycles one line fill holds the L2 read
// port (128B line at 64B/cycle).
const l2FillOccupancy = 2

// loadLatency performs the cache/translation walk for a load.
func (c *core) loadLatency(ea uint64) int {
	line := ea / uint64(c.cfg.L1D.LineBytes)
	if rdy := c.pendingFill.get(line); rdy != 0 {
		if rdy > c.now {
			// Secondary miss: the line is already inbound; wait for it.
			c.hier.L1D.Accesses++
			return int(rdy-c.now) + 1
		}
		c.pendingFill.del(line)
	}
	lat, lvl := c.hier.Access(ea)
	if c.cfg.EATaggedL1 {
		if lvl != LvlL1 {
			c.act.DERATLookups++
			lat += c.mmu.Translate(ea)
			c.busy[UnitMMU] = true
		}
	} else {
		c.act.DERATLookups++
		lat += c.mmu.Translate(ea)
		c.busy[UnitMMU] = true
	}
	if lvl != LvlL1 {
		c.busy[UnitL2] = true
		// L2 read-port occupancy: fills serialize at the L2.
		start := c.now
		if c.l2PortFree > start {
			lat += int(c.l2PortFree - c.now)
			start = c.l2PortFree
		}
		c.l2PortFree = start + l2FillOccupancy
		// Load-miss queue occupancy.
		live := c.lmq[:0]
		for _, t := range c.lmq {
			if t > c.now {
				live = append(live, t)
			}
		}
		c.lmq = live
		if len(c.lmq) >= c.cfg.LoadMissQueue {
			c.act.LMQFull++
			lat += 4 // retry penalty
		} else {
			c.lmq = append(c.lmq, c.now+uint64(lat))
		}
		c.pendingFill.put(line, c.now+uint64(lat))
		if c.pendingFill.n > 4*c.cfg.LoadMissQueue {
			c.pendingFill.sweepExpired(c.now)
		}
		// Train the prefetcher on demand misses.
		for _, pl := range c.pf.OnMiss(line, c.now) {
			c.hier.InsertLine(pl * uint64(c.cfg.L1D.LineBytes))
		}
	}
	return lat
}

// dispatch moves instructions from thread fetch buffers into the OOO engine,
// fusing eligible pairs.
func (c *core) dispatch() {
	width := c.cfg.DecodeWidth
	dispatched := 0
	stalled := false
	nthreads := len(c.threads)
	start := int(c.now) % nthreads
	for ti := 0; ti < nthreads && dispatched < width; ti++ {
		t := c.threads[(start+ti)%nthreads]
		for dispatched < width && t.bufLen > 0 {
			f := t.bufAt(0)
			var f2 *fetchedInst
			if c.cfg.FusionEnabled && t.bufLen > 1 && dispatched+1 < width {
				if fusable(f, t.bufAt(1)) {
					f2 = t.bufAt(1)
				}
			}
			ok, reason := c.allocate(t, f, f2)
			if !ok {
				stalled = true
				switch reason {
				case stallROB:
					c.act.DispatchStallROB++
				case stallIQ:
					c.act.DispatchStallIQ++
				case stallLSQ:
					c.act.DispatchStallLSQ++
				}
				break
			}
			n := 1
			if f2 != nil {
				n = 2
				c.act.FusedPairs++
			}
			t.bufPop(n)
			dispatched += n
			c.act.DecodeSlots += uint64(n)
			c.act.RenameOps++
			c.act.IssueQueueWrites++
		}
	}
	if dispatched > 0 {
		c.busy[UnitDecode] = true
		c.busy[UnitRename] = true
	}
	if stalled {
		c.act.DispatchStallCycles++
	}
}

type stallReason int

const (
	stallNone stallReason = iota
	stallROB
	stallIQ
	stallLSQ
)

// fusable implements the predecode fusion patterns: dependent ALU pairs,
// compare+branch, and consecutive-address store or load pairs.
func fusable(a, b *fetchedInst) bool {
	if a.mispred || b.mispred {
		return false
	}
	ca, cb := a.in.Class(), b.in.Class()
	switch {
	case ca == isa.ClassIntALU && cb == isa.ClassIntALU:
		return a.in.Dst.Valid() && (b.in.A == a.in.Dst || b.in.B == a.in.Dst)
	case ca == isa.ClassIntALU && cb == isa.ClassCondBranch:
		return a.in.Dst.Valid() && (b.in.A == a.in.Dst || b.in.B == a.in.Dst)
	case ca == isa.ClassStore && cb == isa.ClassStore:
		sz := uint64(isa.MemBytesOf(a.in.Op))
		return a.in.A == b.in.A && b.d.EA == a.d.EA+sz && sz <= 8
	case ca == isa.ClassLoad && cb == isa.ClassLoad:
		sz := uint64(isa.MemBytesOf(a.in.Op))
		return a.in.A == b.in.A && b.d.EA == a.d.EA+sz && sz <= 8
	}
	return false
}

// allocGate checks the OOO resource gates for one dispatch (optionally
// fused), returning the LQ/SQ entries it would consume. Shared between
// allocate and the idle-skip detector so the stall taxonomy cannot drift.
func (c *core) allocGate(cls isa.Class, f2 *fetchedInst) (lqNeed, sqNeed int, reason stallReason) {
	if c.count >= len(c.rob) {
		return 0, 0, stallROB
	}
	if c.notIssued >= c.cfg.IssueQueueEntries {
		return 0, 0, stallIQ
	}
	if cls.IsLoad() {
		lqNeed = 1
	}
	if cls.IsStore() {
		sqNeed = 1
	}
	if f2 != nil {
		c2 := f2.in.Class()
		if c2.IsLoad() {
			lqNeed = 1 // fused load pair: single LQ entry
		}
		if c2.IsStore() {
			sqNeed = 1 // fused store pair: single SQ entry
		}
	}
	// sqCount covers both in-flight and retired-awaiting-drain entries.
	if c.lqCount+lqNeed > c.cfg.LoadQueueEntries ||
		c.sqCount+sqNeed > c.cfg.StoreQueueEntries {
		return 0, 0, stallLSQ
	}
	return lqNeed, sqNeed, stallNone
}

// allocate reserves OOO resources for f (optionally fused with f2) and
// builds the ROB entry. It returns false with a stall reason on failure.
func (c *core) allocate(t *threadState, f *fetchedInst, f2 *fetchedInst) (bool, stallReason) {
	cls := f.in.Class()
	lqNeed, sqNeed, reason := c.allocGate(cls, f2)
	if reason != stallNone {
		return false, reason
	}

	slot := wrap(c.head+c.count, len(c.rob))
	c.seq++
	// Every field is written here (issueCycle and doneCycle by tryIssue
	// before anything reads them), so the slot's stale contents need no
	// clearing first.
	e := &c.rob[slot]
	e.valid = true
	e.seq = c.seq
	e.thread = uint8(t.id)
	e.op = f.in.Op
	e.cls = cls
	e.pc = f.d.PC
	e.ea = f.d.EA
	e.memBytes = uint8(isa.MemBytesOf(f.in.Op))
	e.ndeps = 0
	e.issued = false
	e.mispred = f.mispred
	e.archCount = 1
	e.flops = uint16(isa.FlopsOf(f.in.Op))
	e.intMACs = uint16(isa.IntOpsOf(f.in.Op))
	c.addDeps(e, t.id, f.in)
	c.rename(t.id, f.in, slot, c.seq)
	if f2 != nil {
		// Fold the second instruction into the same internal op. Its
		// dependency on f's destination resolves to this very slot and is
		// filtered as an internal (zero-latency) edge.
		e.archCount = 2
		e.flops += uint16(isa.FlopsOf(f2.in.Op))
		e.intMACs += uint16(isa.IntOpsOf(f2.in.Op))
		e.mispred = e.mispred || f2.mispred
		c2 := f2.in.Class()
		if c2 == isa.ClassCondBranch || c2.IsMem() {
			e.cls = c2 // the pair executes on the second op's port
			e.ea = f.d.EA
			if c2.IsMem() {
				e.memBytes += uint8(isa.MemBytesOf(f2.in.Op))
			}
		}
		c.addDeps(e, t.id, f2.in)
		c.rename(t.id, f2.in, slot, c.seq)
	}
	if lqNeed > 0 {
		c.lqCount++
		c.act.LQAllocs++
	}
	if sqNeed > 0 {
		c.sqCount++
		c.act.SQAllocs++
	}
	if e.mispred && t.waitingBranch < 0 {
		t.waitingBranch = slot
		t.waitingSeq = c.seq
	}
	c.count++
	c.notIssued++
	if !c.naive {
		c.scheduleEntry(slot)
	}
	return true, stallNone
}

// addDeps records e's source dependencies through the rename tables,
// de-duplicating and skipping already-retired producers.
func (c *core) addDeps(e *robEntry, thread int, in *isa.Inst) {
	self := int32(wrap(c.head+c.count, len(c.rob)))
	add := func(d depRef) {
		if d.slot < 0 || int(e.ndeps) >= len(e.deps) {
			return
		}
		pe := &c.rob[d.slot]
		if !pe.valid || pe.seq != d.seq {
			return
		}
		if d.slot == self {
			return // self
		}
		for i := 0; i < int(e.ndeps); i++ {
			if e.deps[i] == d {
				return
			}
		}
		e.deps[e.ndeps] = d
		e.ndeps++
	}
	lookup := func(r isa.Reg) depRef {
		switch r.File {
		case isa.FileGPR:
			return c.renGPR[thread][r.Idx]
		case isa.FileVSR:
			return c.renVSR[thread][r.Idx]
		case isa.FileACC:
			d := c.renACC[thread][r.Idx]
			d.acc = true
			return d
		}
		return noDep
	}
	if in.A.File != isa.FileNone {
		add(lookup(in.A))
	}
	if in.B.File != isa.FileNone {
		add(lookup(in.B))
	}
	switch in.Op {
	case isa.OpXvmaddadp, isa.OpXvmaddasp:
		add(lookup(in.Dst)) // FMA reads its destination
	case isa.OpXvf64gerpp:
		add(lookup(isa.VSR(int(in.A.Idx+1) % isa.NumVSR))) // VSR pair source
		add(lookup(in.Dst))                                // accumulator read
	case isa.OpXvf32gerpp, isa.OpXvi8ger4pp:
		add(lookup(in.Dst))
	case isa.OpXxmtacc:
		for r := 1; r < 4 && int(e.ndeps) < len(e.deps); r++ {
			add(lookup(isa.VSR((int(in.A.Idx) + r) % isa.NumVSR)))
		}
	}
}

// rename points destination registers at the new producer.
func (c *core) rename(thread int, in *isa.Inst, slot int, seq uint64) {
	set := func(r isa.Reg) {
		d := depRef{slot: int32(slot), seq: seq}
		switch r.File {
		case isa.FileGPR:
			c.renGPR[thread][r.Idx] = d
		case isa.FileVSR:
			c.renVSR[thread][r.Idx] = d
		case isa.FileACC:
			c.renACC[thread][r.Idx] = d
		}
	}
	if in.Dst.File == isa.FileNone {
		return
	}
	set(in.Dst)
	switch in.Op {
	case isa.OpLxvp:
		set(isa.VSR(int(in.Dst.Idx+1) % isa.NumVSR))
	case isa.OpXxmfacc:
		for r := 1; r < 4; r++ {
			set(isa.VSR((int(in.Dst.Idx) + r) % isa.NumVSR))
		}
	}
}

// fetch brings instructions from the streams into per-thread buffers,
// consulting the instruction cache and branch predictors.
func (c *core) fetch() {
	nthreads := len(c.threads)
	// One thread fetches per cycle, round-robin over unblocked threads.
	for probe := 0; probe < nthreads; probe++ {
		t := c.threads[(int(c.now)+probe)%nthreads]
		if t.done || t.blockedUntil > c.now || t.pendingMispred {
			if !t.done && t.bufLen == 0 {
				c.act.FetchStallCycles++
			}
			continue
		}
		if t.bufLen >= c.cfg.FetchBufEntries {
			continue
		}
		c.fetchThread(t)
		break
	}
}

func (c *core) fetchThread(t *threadState) {
	fetched := 0
	var groupPC uint64
	for fetched < c.cfg.FetchWidth {
		d, ok := t.stream.Next()
		if !ok {
			t.done = true
			break
		}
		in := &t.prog.Code[d.Idx]
		if fetched == 0 {
			groupPC = d.PC
			// One I-cache access per fetch group, with next-line
			// instruction prefetch hiding sequential-code misses.
			hit := c.l1i.Access(groupPC)
			c.l1i.Insert(groupPC + uint64(c.cfg.L1I.LineBytes))
			if !c.cfg.EATaggedL1 {
				c.act.IERATLookups++
			}
			if !hit {
				if c.cfg.EATaggedL1 {
					c.act.IERATLookups++
				}
				t.blockedUntil = c.now + uint64(c.cfg.L2.Latency)
			}
		}
		f := fetchedInst{d: d, in: in}
		cls := in.Class()
		if cls.IsBranch() {
			c.act.BranchObserved++
			c.busy[UnitBPred] = true
			if c.bp.Observe(t.id, d.PC, cls, d.Taken, d.NextPC) {
				f.mispred = true
				t.pendingMispred = true
				t.branchFetchCycle = c.now
				t.bufPush(f)
				fetched++
				c.act.FetchSlots++
				break // stop fetching past an unresolved mispredict
			}
		}
		t.bufPush(f)
		fetched++
		c.act.FetchSlots++
		if cls.IsBranch() && d.Taken {
			break // taken branch ends the fetch group
		}
	}
	if fetched > 0 {
		c.busy[UnitFetch] = true
	}
}
