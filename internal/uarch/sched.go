package uarch

import (
	"math/bits"

	"power10sim/internal/isa"
)

// This file is the wakeup-driven issue scheduler. The original issue loop
// (retained as the schedRef reference behind withNaiveSched) rescans the
// whole instruction window every cycle asking each entry "are all your
// producers done yet?" — O(window) work per cycle, dominated by entries whose
// answer cannot have changed. The wakeup scheduler inverts that: every
// un-issued entry lives in exactly one of three places, and only moves when
// an event affecting it fires.
//
//   - the wake queue, keyed by the cycle its last producer's result becomes
//     available (all producers already issued, so that cycle is known). It
//     is a timing wheel with one bucket per cycle over the next wakeHorizon
//     cycles, each bucket an intrusive list through schedNext, plus a bitmap
//     of non-empty buckets that hands idleSkip its next wake. A wake at or
//     past the horizon — an injected UpsetDone delay, or a config whose
//     memory latency approaches its 65,536-cycle cap — parks in the wheel's
//     farthest bucket and is re-parked from there until it is due;
//   - one producer's waiter list, when at least one producer has not issued
//     yet (its completion cycle is unknown until it issues);
//   - the ready set, a bitmap over ROB slots, when it could issue right now
//     but for port availability.
//
// Readiness is re-derived from the ROB on every transition
// (revalidate-on-wake), never cached across moves. That makes the scheduler
// robust to the fault-injection hooks, which mutate dependency and
// completion state out from under it: a corrupted entry simply re-resolves
// to a waiter list (self-dependency wedges, exactly like the scan version)
// or a later wake cycle. It also makes the order in which one cycle's wakes
// are revalidated irrelevant: each lands where its own ROB state says.
//
// Scanning the ready set from the ROB head in slot order visits entries
// oldest-first, since slots are allocated in sequence order, which
// reproduces the scan's issue order bit-for-bit, including the same-cycle
// store-to-load forwarding and L2-port ordering effects. An entry that loses
// port arbitration keeps its bit for the next cycle, matching the scan's
// continue-not-break behaviour; one made ready mid-scan by a zero-latency
// producer is younger than that producer, so the scan still reaches it this
// cycle, as the window scan would. The equivalence tests in
// sched_equiv_test.go hold the two schedulers to identical Activity counters
// across configs, SMT levels, workload families and injected faults.

// Scheduler location tags: where an un-issued entry currently parks.
const (
	locNone   uint8 = iota // issued, retired, or not yet allocated
	locWake   uint8 = iota // in the wake wheel
	locReady               // in the ready set
	locWaiter              // on a producer's waiter list
)

// wakeHorizon is the timing wheel's span in cycles, a power of two. Over
// the 43 requests the long benchmark sets draw, the farthest of 3.55M wakes
// was 394 cycles out.
const (
	wakeHorizon = 1 << 10
	wakeMask    = wakeHorizon - 1
	wakeWords   = wakeHorizon / 64
)

// pushWake parks the entry in slot until cycle at, which is after now. A
// wake at or past the horizon parks in the farthest bucket, a horizon less
// one ahead: the entry wakes early, and wake's revalidation re-parks it
// until it is due. Only idle-skip spans change, split at each early wake,
// and idleSkip counts the same stalls over either.
func (c *core) pushWake(at uint64, slot int) {
	c.schedLoc[slot] = locWake
	b := min(at, c.now+wakeHorizon-1) & wakeMask
	c.schedNext[slot] = c.wheel[b]
	c.wheel[b] = int32(slot)
	c.wheelOcc[b>>6] |= 1 << (b & 63)
}

// nextWake returns the earliest pending wake cycle after now, or ok false
// when nothing waits on a cycle. Every wheel entry wakes within
// (now, now+wakeHorizon), so a bucket's distance from now+1's bucket is its
// distance in cycles. The occupancy scan starts in now+1's word at its bit,
// runs through the other words, and ends back in that word below the bit.
func (c *core) nextWake() (at uint64, ok bool) {
	b := (c.now + 1) & wakeMask
	for k := uint64(0); k <= wakeWords; k++ {
		w := (b>>6 + k) % wakeWords
		m := c.wheelOcc[w]
		switch k {
		case 0:
			m &= ^uint64(0) << (b & 63)
		case wakeWords:
			m &= 1<<(b&63) - 1
		}
		if m == 0 {
			continue
		}
		bucket := w<<6 + uint64(bits.TrailingZeros64(m))
		return c.now + 1 + ((bucket - b) & wakeMask), true
	}
	return 0, false
}

func (c *core) pushReady(slot int) {
	c.schedLoc[slot] = locReady
	c.readySet[slot>>6] |= 1 << (slot & 63)
	c.nready++
}

func (c *core) clearReady(slot int) {
	c.schedLoc[slot] = locNone
	c.readySet[slot>>6] &^= 1 << (slot & 63)
	c.nready--
}

// nextReady returns the first ready slot in [i, hi), or hi.
func (c *core) nextReady(i, hi int) int {
	for i < hi {
		if m := c.readySet[i>>6] >> (i & 63); m != 0 {
			return min(i+bits.TrailingZeros64(m), hi)
		}
		i = (i | 63) + 1
	}
	return hi
}

// scheduleEntry re-derives where the un-issued entry in slot must wait and
// parks it there. Called at allocation and on every revalidation.
func (c *core) scheduleEntry(slot int) {
	e := &c.rob[slot]
	var readyAt uint64
	for i := 0; i < int(e.ndeps); i++ {
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
// known). A waiter is younger than its producer, so one made ready at once
// by a zero-latency producer lies ahead of the in-progress issue scan.
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

// wakeDue moves every entry due to wake at the current cycle through
// revalidation: into the ready set, onto a waiter list, or back into the
// wake queue at a later cycle (an injected UpsetDone pushes completion
// cycles out, and a wake past the horizon comes early). Every executed cycle
// calls it and a skipped cycle holds no wake, so now's bucket holds exactly
// the wakes due now.
func (c *core) wakeDue() {
	b := c.now & wakeMask
	if bit := uint64(1) << (b & 63); c.wheelOcc[b>>6]&bit != 0 {
		c.wheelOcc[b>>6] &^= bit
		w := c.wheel[b]
		c.wheel[b] = -1
		for w >= 0 {
			next := c.schedNext[w]
			c.wake(int(w))
			w = next
		}
	}
}

// wake revalidates the entry in slot, parked in the wake queue until now.
func (c *core) wake(slot int) {
	e := &c.rob[slot]
	if c.schedLoc[slot] != locWake || !e.valid || e.issued {
		return // stale item; unreachable while the location invariant holds
	}
	c.schedLoc[slot] = locNone
	c.scheduleEntry(slot)
}

// issueWakeup is the wakeup-list replacement for the window scan: it scans
// the ready set in age order and issues against the cycle's port budget.
// Entries that lose port arbitration stay ready for the next cycle.
func (c *core) issueWakeup() {
	c.wakeDue()
	ports := c.newPorts()
	issuedAny := 0
	if c.nready > 0 {
		// The live window runs from head to the end of the array, then
		// wraps to its start.
		for _, r := range [2][2]int{{c.head, len(c.rob)}, {0, c.head}} {
			for slot := c.nextReady(r[0], r[1]); slot < r[1]; slot = c.nextReady(slot+1, r[1]) {
				e := &c.rob[slot]
				if !e.valid || e.issued {
					c.clearReady(slot)
					continue // unreachable while the location invariant holds
				}
				if !c.entryReady(e) {
					// An injected upset rewired a dependency or delayed a
					// producer after this entry was declared ready;
					// re-resolve it.
					c.clearReady(slot)
					c.scheduleEntry(slot)
					continue
				}
				if !c.tryIssue(slot, &ports) {
					continue
				}
				issuedAny++
				c.clearReady(slot)
				c.drainWaiters(slot)
			}
		}
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
	if c.nready > 0 {
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
	if at, ok := c.nextWake(); ok && at < next {
		next = at
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
