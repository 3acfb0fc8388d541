package uarch

import "power10sim/internal/isa"

// This file is the wakeup-driven issue scheduler. The original issue loop
// (retained as the schedRef reference behind withNaiveSched) rescans the
// whole instruction window every cycle asking each entry "are all your
// producers done yet?" — O(window) work per cycle, dominated by entries whose
// answer cannot have changed. The wakeup scheduler inverts that: every
// un-issued entry lives in exactly one of three places, and only moves when
// an event affecting it fires.
//
//   - the wake heap, keyed by the cycle its last producer's result becomes
//     available (all producers already issued, so that cycle is known);
//   - one producer's waiter list, when at least one producer has not issued
//     yet (its completion cycle is unknown until it issues);
//   - the ready queue (a min-heap on sequence number), when it could issue
//     right now but for port availability.
//
// Readiness is re-derived from the ROB on every transition
// (revalidate-on-wake), never cached across moves. That makes the scheduler
// robust to the fault-injection hooks, which mutate dependency and
// completion state out from under it: a corrupted entry simply re-resolves
// to a waiter list (self-dependency wedges, exactly like the scan version)
// or a later wake cycle.
//
// Popping the ready queue in sequence order reproduces the scan's
// oldest-first issue order bit-for-bit, including the same-cycle
// store-to-load forwarding and L2-port ordering effects; entries that lose
// port arbitration are put back, matching the scan's continue-not-break
// behaviour. The equivalence tests in sched_equiv_test.go hold the two
// schedulers to identical Activity counters across configs, SMT levels,
// workload families and injected faults.

// Scheduler location tags: where an un-issued entry currently parks.
const (
	locNone   uint8 = iota // issued, retired, or not yet allocated
	locWake   uint8 = iota // in the wake heap
	locReady               // in the ready queue
	locWaiter              // on a producer's waiter list
)

// wakeItem is one wake-heap element: wake the entry in slot at cycle `at`.
type wakeItem struct {
	at   uint64
	seq  uint64
	slot int32
}

// readyItem is one ready-queue element, ordered by sequence number so issue
// considers ready entries oldest-first, exactly like the window scan.
type readyItem struct {
	seq  uint64
	slot int32
}

func wakeLess(a, b wakeItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (c *core) pushWake(at uint64, slot int) {
	c.schedLoc[slot] = locWake
	h := append(c.wakeHeap, wakeItem{at: at, seq: c.rob[slot].seq, slot: int32(slot)})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.wakeHeap = h
}

func (c *core) popWake() wakeItem {
	h := c.wakeHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && wakeLess(h[l], h[s]) {
			s = l
		}
		if r < len(h) && wakeLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	c.wakeHeap = h
	return top
}

func (c *core) pushReady(slot int) {
	c.schedLoc[slot] = locReady
	h := append(c.readyQ, readyItem{seq: c.rob[slot].seq, slot: int32(slot)})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].seq >= h[p].seq {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.readyQ = h
}

func (c *core) popReady() int {
	h := c.readyQ
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && h[l].seq < h[s].seq {
			s = l
		}
		if r < len(h) && h[r].seq < h[s].seq {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	c.readyQ = h
	return int(top.slot)
}

// scheduleEntry re-derives where the un-issued entry in slot must wait and
// parks it there. Called at allocation and on every revalidation.
func (c *core) scheduleEntry(slot int) {
	e := &c.rob[slot]
	var readyAt uint64
	for i := 0; i < e.ndeps; i++ {
		d := e.deps[i]
		if d.slot < 0 {
			continue
		}
		pe := &c.rob[d.slot]
		if !pe.valid || pe.seq != d.seq {
			continue // producer retired; the value is architecturally there
		}
		if !pe.issued {
			// Completion cycle unknown: park on this producer's waiter
			// list; its issue re-schedules us with a concrete wake cycle.
			c.schedLoc[slot] = locWaiter
			c.schedNext[slot] = c.waiterHead[d.slot]
			c.waiterHead[d.slot] = int32(slot)
			return
		}
		var edge uint64
		if d.acc && c.cfg.MMAAccumForwarding && pe.cls == isa.ClassMMA {
			edge = pe.issueCycle + 1 // accumulator chaining inside the MMA
		} else {
			edge = pe.doneCycle
		}
		if edge > readyAt {
			readyAt = edge
		}
	}
	if readyAt <= c.now {
		c.pushReady(slot)
	} else {
		c.pushWake(readyAt, slot)
	}
}

// drainWaiters re-schedules everything that was parked on slot's waiter list.
// Called when the producer in slot issues (its completion cycle is now
// known). Wake cycles land at now+1 or later, so the in-progress issue loop
// is never perturbed.
func (c *core) drainWaiters(slot int) {
	w := c.waiterHead[slot]
	c.waiterHead[slot] = -1
	for w >= 0 {
		next := c.schedNext[w]
		c.schedLoc[w] = locNone
		c.scheduleEntry(int(w))
		w = next
	}
}

// wakeDue moves every wake-heap entry due at the current cycle through
// revalidation: into the ready queue, onto a waiter list, or back into the
// heap at a later cycle (an injected UpsetDone pushes completion cycles out).
func (c *core) wakeDue() {
	for len(c.wakeHeap) > 0 && c.wakeHeap[0].at <= c.now {
		it := c.popWake()
		slot := int(it.slot)
		e := &c.rob[slot]
		if c.schedLoc[slot] != locWake || !e.valid || e.seq != it.seq || e.issued {
			continue // stale item; unreachable while the location invariant holds
		}
		c.schedLoc[slot] = locNone
		c.scheduleEntry(slot)
	}
}

// issueWakeup is the wakeup-list replacement for the window scan: it pops
// ready entries in sequence order and issues them against the cycle's port
// budget. Entries that lose port arbitration stay ready for the next cycle.
func (c *core) issueWakeup() {
	c.wakeDue()
	ports := c.newPorts()
	issuedAny := 0
	c.deferred = c.deferred[:0]
	for len(c.readyQ) > 0 {
		slot := c.popReady()
		e := &c.rob[slot]
		if !e.valid || e.issued {
			c.schedLoc[slot] = locNone
			continue // unreachable while the location invariant holds
		}
		if !c.entryReady(e) {
			// An injected upset rewired a dependency or delayed a producer
			// after this entry was declared ready; re-resolve it.
			c.schedLoc[slot] = locNone
			c.scheduleEntry(slot)
			continue
		}
		if !c.tryIssue(slot, &ports) {
			c.deferred = append(c.deferred, int32(slot))
			continue
		}
		issuedAny++
		c.schedLoc[slot] = locNone
		c.drainWaiters(slot)
	}
	for _, s := range c.deferred {
		c.pushReady(int(s))
	}
	if issuedAny > 0 {
		c.busy[UnitIssue] = true
	}
	if c.cfg.ReservationStations && c.notIssued > 0 {
		c.act.RSWakeups += uint64(c.notIssued)
	}
}

// idleSkip detects a cycle in which no pipeline stage can make progress and,
// when possible, fast-forwards the clock to the next cycle at which anything
// can change (a wake, the head's completion, a fetch unblock, an injected
// upset, a context-check or epoch/sample boundary, the watchdog, the cycle
// limit). It applies the per-cycle stall statistics the per-cycle loop would
// have accumulated over the skipped span — those are constant while the
// machine state is frozen — and returns the number of cycles skipped
// (0 when the cycle must run normally).
func (c *core) idleSkip(o *simOptions, lastProgress, maxCycles uint64, checkCtx bool) uint64 {
	c.wakeDue()
	if len(c.readyQ) > 0 {
		return 0 // something can issue
	}
	if c.count > 0 {
		h := &c.rob[c.head]
		if h.valid && h.issued && h.doneCycle <= c.now {
			return 0 // something can retire
		}
	}
	if c.drainLen > 0 {
		return 0 // a store can drain
	}
	if c.finished() {
		return 0 // the drain check at the bottom of the loop must run
	}
	width := c.cfg.DecodeWidth
	var fetchStalls, dROB, dIQ, dLSQ uint64
	dispatchStalled := false
	for _, t := range c.threads {
		if t.done || t.blockedUntil > c.now || t.pendingMispred {
			if !t.done && t.bufLen == 0 {
				fetchStalls++
			}
		} else if t.bufLen < c.cfg.FetchBufEntries {
			return 0 // this thread can fetch
		}
		if t.bufLen > 0 && width > 0 {
			f := t.bufAt(0)
			var f2 *fetchedInst
			if c.cfg.FusionEnabled && t.bufLen > 1 && 1 < width && fusable(f, t.bufAt(1)) {
				f2 = t.bufAt(1)
			}
			_, _, reason := c.allocGate(f.in.Class(), f2)
			if reason == stallNone {
				return 0 // this thread can dispatch
			}
			switch reason {
			case stallROB:
				dROB++
			case stallIQ:
				dIQ++
			case stallLSQ:
				dLSQ++
			}
			dispatchStalled = true
		}
	}

	// Provably idle. Find the next cycle that must execute normally.
	next := maxCycles
	if len(c.wakeHeap) > 0 && c.wakeHeap[0].at < next {
		next = c.wakeHeap[0].at
	}
	if c.count > 0 {
		h := &c.rob[c.head]
		if h.valid && h.issued && h.doneCycle < next {
			next = h.doneCycle
		}
	}
	for _, t := range c.threads {
		if !t.done && t.blockedUntil > c.now && t.blockedUntil < next {
			next = t.blockedUntil
		}
	}
	if o.upset != nil && c.upsetOutcome == nil && o.upset.Cycle > c.now && o.upset.Cycle < next {
		next = o.upset.Cycle // the upset fires on exact cycle equality
	}
	if checkCtx {
		if b := (c.now | (ctxCheckInterval - 1)) + 1; b < next {
			next = b
		}
	}
	if o.sampleFn != nil && o.sampleEvery > 0 {
		if b := c.sampleStart + o.sampleEvery - 1; b < next {
			next = b
		}
	}
	if w := lastProgress + noProgressWindow + 1; w < next {
		next = w // the cycle the forward-progress watchdog trips
	}
	if next <= c.now {
		return 0 // a boundary lands on this very cycle; run it normally
	}

	k := next - c.now
	// Stall counters still tick per skipped cycle; everything they read is
	// frozen, so the per-cycle contributions are constants.
	c.act.FetchStallCycles += fetchStalls * k
	if dispatchStalled {
		c.act.DispatchStallCycles += k
		c.act.DispatchStallROB += dROB * k
		c.act.DispatchStallIQ += dIQ * k
		c.act.DispatchStallLSQ += dLSQ * k
	}
	if c.cfg.ReservationStations && c.notIssued > 0 {
		c.act.RSWakeups += uint64(c.notIssued) * k
	}
	return k
}
