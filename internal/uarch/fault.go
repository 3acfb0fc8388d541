package uarch

import (
	"context"
	"fmt"
	"strings"
)

// This file is the micro-architectural half of the fault-injection engine
// (internal/faultinject): a single-upset hook that corrupts in-flight core
// state at a chosen cycle, plus the watchdog machinery (cooperative
// cancellation and hang diagnostics) the hardened runner builds on. The off
// path costs one nil check per cycle, the same discipline as WithSampler
// (guarded by BenchmarkCoreInjectionOff at the repo root).

// UpsetTarget selects which piece of in-flight state a latch upset corrupts.
// The targets model the architectural consequence classes of control-latch
// upsets: a corrupted effective address perturbs the memory timing path, a
// corrupted dependency wedges the out-of-order engine (the hang mode the
// watchdog must catch), and a corrupted completion timestamp delays or stalls
// retirement.
type UpsetTarget int

// Upset targets.
const (
	// UpsetEA flips a bit in an in-flight memory operation's effective
	// address before it issues: the access goes to the wrong line (timing
	// corruption; architectural results are unaffected because the
	// functional stream is precomputed).
	UpsetEA UpsetTarget = iota
	// UpsetDep corrupts an un-issued entry's dependency tracking so it
	// waits on itself forever: retirement wedges behind it and the
	// forward-progress watchdog fires.
	UpsetDep
	// UpsetDone adds a large delay to an issued entry's completion
	// timestamp; delays beyond the no-progress window read as a hang.
	UpsetDone
	// NumUpsetTargets counts the targets.
	NumUpsetTargets
)

func (t UpsetTarget) String() string {
	switch t {
	case UpsetEA:
		return "ea"
	case UpsetDep:
		return "dep"
	case UpsetDone:
		return "done"
	}
	return "upset(?)"
}

// Upset describes one single-latch bit-flip upset to inject into a running
// simulation. The zero value is not a valid upset; a nil *Upset disables
// injection entirely (the zero-rate path).
type Upset struct {
	// Cycle is the simulation cycle the upset lands on.
	Cycle uint64
	// Target selects the corrupted structure.
	Target UpsetTarget
	// Slot selects the victim among eligible in-flight entries (modulo the
	// eligible population at the injection cycle).
	Slot uint64
	// Bit is the flipped bit position (masked to the target's width).
	Bit uint
	// DoneDelay is the completion-delay in cycles for UpsetDone (0 selects
	// a delay past the no-progress window, i.e. a hang).
	DoneDelay uint64
}

// UpsetOutcome reports what the injected upset actually hit, so the
// fault-injection engine can distinguish "landed in live state" from
// "unit idle, nothing in flight" (an architecturally masked trial).
type UpsetOutcome struct {
	// Landed is true when an eligible victim entry existed at the cycle.
	Landed bool
	// Victim identifies the corrupted ROB slot when Landed.
	Victim int
	// VictimOp is the victim's opcode name (diagnostics).
	VictimOp string
	// Target echoes the applied target.
	Target UpsetTarget
}

// applyUpset fires the injected upset. Called exactly once, at the upset's
// cycle, before the pipeline stages run.
func (c *core) applyUpset(u *Upset) {
	c.upsetOutcome = &UpsetOutcome{Target: u.Target}
	// Collect eligible victims: valid entries, not yet issued for EA/dep
	// targets, issued for done targets.
	var victims []int
	for i, slot := 0, c.head; i < c.count; i, slot = i+1, wrap(slot+1, len(c.rob)) {
		e := &c.rob[slot]
		if !e.valid {
			continue
		}
		switch u.Target {
		case UpsetEA:
			if !e.issued && e.cls.IsMem() {
				victims = append(victims, slot)
			}
		case UpsetDep:
			if !e.issued {
				victims = append(victims, slot)
			}
		case UpsetDone:
			if e.issued && e.doneCycle > c.now {
				victims = append(victims, slot)
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	slot := victims[u.Slot%uint64(len(victims))]
	e := &c.rob[slot]
	c.upsetOutcome.Landed = true
	c.upsetOutcome.Victim = slot
	c.upsetOutcome.VictimOp = e.op.String()
	switch u.Target {
	case UpsetEA:
		e.ea ^= 1 << (u.Bit & 63)
	case UpsetDep:
		// Self-dependency: the entry can never become ready, so the ROB
		// head eventually wedges behind it.
		e.deps[0] = depRef{slot: int32(slot), seq: e.seq}
		e.ndeps = 1
	case UpsetDone:
		delay := u.DoneDelay
		if delay == 0 {
			delay = noProgressWindow * 2
		}
		e.doneCycle += delay
	}
}

// WithUpset injects a single-latch upset at the given cycle. A nil upset is
// the explicit zero-rate path: it adds no per-cycle work beyond one nil
// check, and the simulation result is bit-identical to an uninjected run.
func WithUpset(u *Upset) SimOption {
	return func(o *simOptions) { o.upset = u }
}

// ctxCheckInterval is how many cycles pass between cooperative cancellation
// checks. Power-of-two so the check reduces to a mask.
const ctxCheckInterval = 1 << 13

// WithContext makes the simulation cooperatively cancellable: every
// ctxCheckInterval cycles it polls ctx.Err() and aborts with a CancelError
// wrapping the context's error. This is the per-simulation wall-clock
// watchdog hook (pair it with context.WithTimeout) and the SIGINT
// cancellation path. A nil ctx disables the checks.
func WithContext(ctx context.Context) SimOption {
	return func(o *simOptions) { o.ctx = ctx }
}

// WithStrictCycleLimit makes exhausting maxCycles before the pipeline drains
// an error (a HangError with full diagnostics) instead of a silent
// truncation. The hardened runner enables this so a sweep never mistakes a
// wedged simulation for a short one; direct callers that intentionally
// truncate (epoch series, throttle fitting) leave it off.
func WithStrictCycleLimit() SimOption {
	return func(o *simOptions) { o.strictLimit = true }
}

// CancelError reports a simulation aborted by its context (wall-clock
// watchdog deadline or user cancellation). Unwrap yields the context error,
// so errors.Is(err, context.DeadlineExceeded) distinguishes timeouts from
// interrupts.
type CancelError struct {
	Cfg     string
	Cycle   uint64
	Retired uint64
	Err     error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("uarch: %s canceled at cycle %d (%d retired): %v",
		e.Cfg, e.Cycle, e.Retired, e.Err)
}

// Unwrap returns the underlying context error.
func (e *CancelError) Unwrap() error { return e.Err }

// ThreadDiag is one hardware thread's state in a hang report.
type ThreadDiag struct {
	ID int
	// PC is the next instruction's address in the thread's fetch buffer
	// (0 when the buffer is empty).
	PC uint64
	// Buffered is the fetch-buffer occupancy.
	Buffered int
	// Done reports the thread's stream was exhausted.
	Done bool
}

// HangError is the diagnostic bail-out for a simulation that stopped making
// forward progress (no retirement for noProgressWindow cycles) or exhausted
// its cycle budget under WithStrictCycleLimit. It carries enough context —
// cycle count, retired instructions, per-thread PCs, the head-of-ROB
// operation — for a watchdog report to be actionable.
type HangError struct {
	Cfg     string
	Reason  string // "no retirement progress" or "cycle limit exhausted"
	Cycle   uint64
	Retired uint64
	// Window is the no-progress window length (0 for cycle-limit errors).
	Window uint64
	// ROBOccupancy is the instruction-table fill at bail-out.
	ROBOccupancy int
	// HeadValid reports whether a head-of-ROB entry existed.
	HeadValid bool
	// HeadOp/HeadPC/HeadIssued describe the head-of-ROB operation.
	HeadOp     string
	HeadPC     uint64
	HeadIssued bool
	Threads    []ThreadDiag
}

func (e *HangError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "uarch: %s: %s at cycle %d (%d retired, ROB %d)",
		e.Cfg, e.Reason, e.Cycle, e.Retired, e.ROBOccupancy)
	if e.HeadValid {
		fmt.Fprintf(&b, "; head-of-ROB %s@%#x issued=%v", e.HeadOp, e.HeadPC, e.HeadIssued)
	}
	for _, t := range e.Threads {
		fmt.Fprintf(&b, "; t%d pc=%#x buf=%d done=%v", t.ID, t.PC, t.Buffered, t.Done)
	}
	return b.String()
}

// hangError assembles the diagnostic snapshot at the point of bail-out.
func (c *core) hangError(reason string, window uint64) *HangError {
	e := &HangError{
		Cfg:          c.cfg.Name,
		Reason:       reason,
		Cycle:        c.now,
		Retired:      c.act.Instructions,
		Window:       window,
		ROBOccupancy: c.count,
	}
	if c.count > 0 && c.rob[c.head].valid {
		h := &c.rob[c.head]
		e.HeadValid = true
		e.HeadOp = h.op.String()
		e.HeadPC = h.pc
		e.HeadIssued = h.issued
	}
	for _, t := range c.threads {
		d := ThreadDiag{ID: t.id, Buffered: t.bufLen, Done: t.done}
		if t.bufLen > 0 {
			d.PC = t.bufAt(0).d.PC
		}
		e.Threads = append(e.Threads, d)
	}
	return e
}
