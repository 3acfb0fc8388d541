// Package progress is the live progress plane of the harness: a bounded,
// race-safe publish/subscribe bus that the simulation runner and the
// experiment sweeps publish typed events into. Every surface that shows a
// sweep in motion — the stderr console renderer, the observability server's
// /events SSE stream and /status JSON — renders from the same event stream,
// so they can never disagree about what happened.
//
// The bus follows the telemetry package's discipline:
//
//   - Nil is off. Every method on a nil *Bus does nothing, so publishers
//     instrument unconditionally.
//   - No subscriber, no cost. Publish with zero subscribers is one atomic
//     load (guarded by BenchmarkPublishNoSubscribers); the event struct is
//     only populated after that check passes via the Publishf/lazy forms.
//   - Publishers never block. Each subscriber owns a bounded buffer; a slow
//     subscriber drops events (counted per subscriber and bus-wide) instead
//     of stalling the sweep.
package progress

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event. Values are stable strings: they appear verbatim
// in the /events SSE stream and the /status aggregation, and DESIGN.md
// documents them as the progress-event schema.
type Kind string

const (
	// KindSimStarted fires when the runner begins executing a cache-miss
	// simulation. Sim carries the "workload@config/smtN" label.
	KindSimStarted Kind = "sim_started"
	// KindSimFinished fires when an executed simulation completes
	// successfully. Elapsed is the execution wall time, Attempt the number
	// of attempts it took.
	KindSimFinished Kind = "sim_finished"
	// KindSimRetried fires before each re-execution of a transiently failed
	// simulation; Attempt is the attempt number about to start.
	KindSimRetried Kind = "sim_retried"
	// KindSimFailed fires when an executed simulation returns an error
	// (after retries are exhausted). Err carries the message.
	KindSimFailed Kind = "sim_failed"
	// KindCacheHit fires when a request is served from the memoization
	// cache (including coalescing onto an in-flight run).
	KindCacheHit Kind = "cache_hit"
	// KindBatchSubmitted fires when an experiment fans a batch of
	// simulation requests into the runner; Count is the batch size.
	KindBatchSubmitted Kind = "batch_submitted"
	// KindExperimentBegun fires when a sweep starts an experiment.
	KindExperimentBegun Kind = "experiment_begun"
	// KindExperimentDone fires when an experiment completes successfully.
	KindExperimentDone Kind = "experiment_done"
	// KindExperimentFailed fires when an experiment returns an error.
	KindExperimentFailed Kind = "experiment_failed"
	// KindSweepDone fires once, after the last experiment of a sweep.
	KindSweepDone Kind = "sweep_done"

	// Fabric events (published by the distributed-sweep coordinator in
	// internal/fabric; Worker carries the worker name).
	//
	// KindWorkerJoined fires when a worker registers with the coordinator.
	KindWorkerJoined Kind = "worker_joined"
	// KindWorkerLost fires when a worker misses its lease heartbeats and its
	// in-flight units are reclaimed; Count is the number of reclaimed units.
	KindWorkerLost Kind = "worker_lost"
	// KindWorkerDrained fires when a worker deregisters cleanly.
	KindWorkerDrained Kind = "worker_drained"
	// KindUnitRequeued fires when a work unit returns to the queue after a
	// lease expiry or a failed attempt; Attempt is the next attempt number
	// and Sim the unit's simulation label.
	KindUnitRequeued Kind = "unit_requeued"
	// KindUnitDuplicate fires when a late completion for an already-accepted
	// unit is discarded (the accept-once rule).
	KindUnitDuplicate Kind = "unit_duplicate"

	// KindNote is an operator annotation from the flight recorder ("drain
	// signal received", "lease lost: ..."); Note carries the text.
	KindNote Kind = "note"
)

// Event is one progress observation. Seq is assigned by the bus at publish
// time and is strictly increasing per bus, so subscribers can detect drops.
// The zero value of unused fields is omitted from JSON renderings.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`
	// Experiment is the experiment name for experiment/batch events.
	Experiment string `json:"experiment,omitempty"`
	// Sim is the "workload@config/smtN" label for simulation events.
	Sim string `json:"sim,omitempty"`
	// Err is the error message for *_failed events.
	Err string `json:"error,omitempty"`
	// Elapsed is the wall-clock duration for *_done / *_finished events,
	// in seconds.
	Elapsed float64 `json:"elapsed_seconds,omitempty"`
	// Attempt is the execution attempt number for retry/finish events.
	Attempt int `json:"attempt,omitempty"`
	// Count is the request count for batch events.
	Count int `json:"count,omitempty"`
	// IPC and Power are the finished simulation's headline readings on
	// sim_finished events — the live feed behind the dashboard sparklines.
	IPC   float64 `json:"ipc,omitempty"`
	Power float64 `json:"power,omitempty"`
	// Worker is the fleet worker name for fabric events.
	Worker string `json:"worker,omitempty"`
	// Note is the annotation text of note events.
	Note string `json:"note,omitempty"`
}

// String renders the event the way the console subscriber prints it.
func (e Event) String() string {
	switch e.Kind {
	case KindExperimentDone:
		return fmt.Sprintf("%s: %.1fs", e.Experiment, e.Elapsed)
	case KindExperimentFailed:
		return fmt.Sprintf("%s: %s", e.Experiment, e.Err)
	case KindSimRetried:
		return fmt.Sprintf("retry %s (attempt %d)", e.Sim, e.Attempt)
	case KindSimFailed:
		return fmt.Sprintf("sim %s failed: %s", e.Sim, e.Err)
	case KindSweepDone:
		return fmt.Sprintf("sweep done: %.1fs", e.Elapsed)
	case KindWorkerJoined:
		return fmt.Sprintf("worker %s joined", e.Worker)
	case KindWorkerLost:
		return fmt.Sprintf("worker %s lost (%d unit(s) reclaimed)", e.Worker, e.Count)
	case KindWorkerDrained:
		return fmt.Sprintf("worker %s drained", e.Worker)
	case KindUnitRequeued:
		return fmt.Sprintf("requeue %s (attempt %d)", e.Sim, e.Attempt)
	case KindUnitDuplicate:
		return fmt.Sprintf("duplicate result for %s discarded", e.Sim)
	}
	if e.Sim != "" {
		return fmt.Sprintf("%s %s", e.Kind, e.Sim)
	}
	if e.Experiment != "" {
		return fmt.Sprintf("%s %s", e.Kind, e.Experiment)
	}
	return string(e.Kind)
}

// replayCap bounds the bus's replay ring: the most recent stamped events,
// kept so an SSE client reconnecting with Last-Event-ID can be backfilled
// instead of silently losing the gap. Events published with no subscriber
// attached are never stamped and therefore never buffered — a bus nobody was
// watching has no history to replay, which keeps the zero-subscriber publish
// path at one atomic load.
const replayCap = 4096

// Bus is the bounded pub/sub hub. The zero value is not usable; construct
// with NewBus. A nil *Bus is a valid no-op sink.
type Bus struct {
	nsubs atomic.Int32 // fast no-subscriber gate for Publish

	mu      sync.Mutex
	subs    map[int]*Subscription
	nextID  int
	seq     uint64
	ring    []Event // replay ring; once full, ring[head] is the oldest event
	head    int
	dropped atomic.Uint64
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[int]*Subscription{}}
}

// Subscription is one subscriber's view of the bus: a bounded event channel
// plus drop accounting. Close it when done; the bus never closes C except
// through Close or Bus shutdown.
type Subscription struct {
	bus     *Bus
	id      int
	c       chan Event
	dropped atomic.Uint64
	closed  atomic.Bool
}

// C is the event channel. It is closed when the subscription is closed.
func (s *Subscription) C() <-chan Event { return s.c }

// Dropped returns how many events this subscriber lost to a full buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call once;
// callers must not call Close concurrently with draining C from another
// goroutine that assumes the channel stays open.
func (s *Subscription) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	b := s.bus
	b.mu.Lock()
	if _, ok := b.subs[s.id]; ok {
		delete(b.subs, s.id)
		b.nsubs.Add(-1)
	}
	close(s.c)
	b.mu.Unlock()
}

// Subscribe attaches a subscriber with a buffer of the given capacity
// (minimum 1). Events published while the buffer is full are dropped for
// this subscriber and counted. Returns nil on a nil bus.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if b == nil {
		return nil
	}
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{bus: b, c: make(chan Event, buffer)}
	b.mu.Lock()
	s.id = b.nextID
	b.nextID++
	b.subs[s.id] = s
	b.nsubs.Add(1)
	b.mu.Unlock()
	return s
}

// Active reports whether any subscriber is attached. Safe on nil. Publishers
// with expensive event construction may gate on this; Publish itself already
// performs the same check before touching any lock.
func (b *Bus) Active() bool { return b != nil && b.nsubs.Load() > 0 }

// Publish stamps the event (Seq, Time if unset) and offers it to every
// subscriber without blocking. With no subscriber attached this is a single
// atomic load. Safe on nil.
func (b *Bus) Publish(ev Event) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if len(b.ring) < replayCap {
		b.ring = append(b.ring, ev)
	} else {
		b.ring[b.head] = ev
		b.head = (b.head + 1) % replayCap
	}
	for _, s := range b.subs {
		select {
		case s.c <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// ReplaySince returns the buffered events with sequence numbers strictly
// greater than seq, oldest first — the backfill an SSE client presenting
// Last-Event-ID receives on reconnect. Events older than the replay ring are
// gone; the caller can detect that residual gap from the first returned
// sequence number. Safe on nil.
func (b *Bus) ReplaySince(seq uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// In logical order (from head, wrapping) the ring is sorted by Seq,
	// stamped under this mutex; find the first event past seq.
	n := len(b.ring)
	at := func(i int) Event { return b.ring[(b.head+i)%n] }
	lo := sort.Search(n, func(i int) bool { return at(i).Seq > seq })
	if lo == n {
		return nil
	}
	out := make([]Event, n-lo)
	for i := range out {
		out[i] = at(lo + i)
	}
	return out
}

// Dropped returns the total number of events dropped across all subscribers.
// Safe on nil.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Published returns the number of events stamped so far (the latest Seq).
// Safe on nil.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close closes every subscription. Further Publish calls are no-ops (no
// subscribers remain). Safe on nil.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	for id, s := range b.subs {
		if s.closed.CompareAndSwap(false, true) {
			close(s.c)
		}
		delete(b.subs, id)
		b.nsubs.Add(-1)
	}
	b.mu.Unlock()
}
