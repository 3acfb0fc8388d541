package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"power10sim/internal/progress"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// ErrClosed is returned for operations against a draining coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// CoordinatorOptions configures a Coordinator. The zero value is usable:
// every field has a default, and nil Bus/Registry follow the repository's
// nil-is-off observability convention.
type CoordinatorOptions struct {
	// LeaseTTL is how long a dispatched unit stays owned by a worker without
	// a heartbeat before it is reclaimed and re-dispatched.
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatch attempts per unit; a unit that exhausts
	// them fails permanently (a deterministic, non-transient error, so the
	// submitting sweep reports it instead of retrying forever).
	MaxAttempts int
	// RetryBackoff is the base re-dispatch delay; attempt n waits
	// RetryBackoff×2^(n-1) (capped at 16×) plus a deterministic per-key
	// jitter, so a thundering herd of reclaimed units fans back out.
	RetryBackoff time.Duration
	// Bus receives fleet lifecycle events (worker joined/lost/drained, unit
	// requeued/duplicate).
	Bus *progress.Bus
	// Registry receives the fabric_* counters and gauges.
	Registry *telemetry.Registry
}

type unitState int

const (
	statePending unitState = iota
	stateLeased
	stateDone
)

func (s unitState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateLeased:
		return "leased"
	default:
		return "done"
	}
}

// unit is one content-keyed simulation in the coordinator's ledger. A unit
// is created once per key (fleet-wide dedup), transitions
// pending→leased→pending… under lease recovery, and reaches done exactly
// once — the accept-once rule lives in Complete.
type unit struct {
	key     string
	label   string
	payload []byte

	state     unitState
	attempt   int // dispatch attempts so far
	notBefore time.Time
	leasedTo  string

	leaseExpiry time.Time

	// Lifecycle record for the merged fleet trace: the trace context minted
	// at submit, the submit time, the start of the current pending interval
	// (queue-wait accounting), and one hop per lease. Queued intervals are
	// not stored — they are derivable as the gaps between submit/hop-end and
	// the next lease.
	trace     telemetry.TraceContext
	submitted time.Time
	queuedAt  time.Time
	hops      []*hop
	mergedAt  time.Time
	mergedBy  string // worker name that produced the accepted result

	wire   WireResult // final result once state == stateDone
	failed bool
	done   chan struct{}
}

// hop is one lease of a unit by one worker — the coordinator-side record the
// merged fleet trace and the lease-age/requeue-latency histograms are built
// from. Times are on the coordinator clock except startedW/finishedW, which
// the worker reports on its own clock (unix µs) and the trace builder maps
// through that worker's estimated offset.
type hop struct {
	worker   string // worker name (trace annotation)
	workerID string
	leased   time.Time
	ended    time.Time // zero while the lease is live
	outcome  string    // "merged", "failed", "requeued: <reason>", "superseded"

	startedW  int64
	finishedW int64
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id      string
	name    string
	workers int
	state   string // live | drained | lost
	last    time.Time

	completed uint64
	failed    uint64

	// offsetMicros/rttMicros are the worker's latest reported clock-offset
	// estimate ((coordinator - worker) µs, with its RTT error bound); zero
	// RTT means never reported. snap is the worker's latest telemetry
	// snapshot, kept for federation — it survives the worker draining so the
	// fleet view doesn't lose counters when a worker leaves cleanly.
	offsetMicros int64
	rttMicros    int64
	snap         *telemetry.Snapshot
}

// Coordinator owns the unit ledger, the worker registry, and the lease
// lifecycle. It implements runner.Executor (Execute), so a stock runner with
// SetExecutor(c.Execute) transparently runs its cache-miss simulations on
// the fleet while every local layer — memo cache, disk cache, run ledger,
// telemetry, progress events — behaves exactly as in a single-process sweep.
type Coordinator struct {
	opts CoordinatorOptions
	now  func() time.Time // injectable clock for lease tests

	mu      sync.Mutex
	start   time.Time // trace epoch: all merged-trace timestamps are µs since this
	units   map[string]*unit
	fifo    []*unit // pending units, dispatch order
	workers map[string]*workerState
	nextID  int
	closed  bool
	wake    chan struct{} // closed and replaced whenever work becomes ready

	requeues   uint64
	duplicates uint64
	corrupt    uint64

	tmPending   *telemetry.Gauge
	tmLive      *telemetry.Gauge
	tmCompleted *telemetry.Counter
	tmRequeued  *telemetry.Counter
	tmDuplicate *telemetry.Counter
	tmCorrupt   *telemetry.Counter
	tmJoined    *telemetry.Counter
	tmLost      *telemetry.Counter

	tmQueueWait  *telemetry.Histogram
	tmLeaseAge   *telemetry.Histogram
	tmRequeueLat *telemetry.Histogram

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator creates a coordinator and starts its lease sweeper. Close
// it when the sweep is over.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	reg := opts.Registry
	c := &Coordinator{
		opts:    opts,
		now:     time.Now,
		start:   time.Now(),
		units:   map[string]*unit{},
		workers: map[string]*workerState{},
		wake:    make(chan struct{}),
		// fabric_queue_pending / fabric_workers_live: live queue depth and
		// fleet size. The counters below account every robustness event the
		// fabric absorbs.
		tmPending:   reg.Gauge("fabric_queue_pending"),
		tmLive:      reg.Gauge("fabric_workers_live"),
		tmCompleted: reg.Counter("fabric_units_completed_total"),
		tmRequeued:  reg.Counter("fabric_units_requeued_total"),
		tmDuplicate: reg.Counter("fabric_duplicate_results_total"),
		tmCorrupt:   reg.Counter("fabric_corrupt_results_total"),
		tmJoined:    reg.Counter("fabric_workers_joined_total"),
		tmLost:      reg.Counter("fabric_workers_lost_total"),
		// Dispatch-latency histograms: how long units sit queued before a
		// lease, how long an accepted lease lives before its result merges,
		// and how long a doomed lease lives before the fabric recovers it.
		tmQueueWait:  reg.Histogram("fabric_queue_wait_seconds", telemetry.DurationBuckets()),
		tmLeaseAge:   reg.Histogram("fabric_lease_age_seconds", telemetry.DurationBuckets()),
		tmRequeueLat: reg.Histogram("fabric_requeue_latency_seconds", telemetry.DurationBuckets()),
		sweepStop:    make(chan struct{}),
		sweepDone:    make(chan struct{}),
	}
	go c.sweep()
	return c
}

// Close drains the coordinator: lease long-polls return Closing so workers
// can exit their poll loops, and the sweeper stops. Pending units are left
// in place — their waiters unblock through their own contexts.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.wakeLocked()
	c.mu.Unlock()
	close(c.sweepStop)
	<-c.sweepDone
}

// wakeLocked releases every lease long-poll waiter. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// ---------------------------------------------------------------------------
// Executor: the runner-facing side.

// Execute implements runner.Executor: encode the request, enter it into the
// fleet ledger (deduplicated by content key), and block until the fleet
// delivers its result or ctx is canceled. The returned result is rebuilt
// locally from wire ground truth, so callers cannot distinguish it from a
// local execution.
func (c *Coordinator) Execute(ctx context.Context, req runner.Request) (runner.Result, bool) {
	payload, key, err := EncodeRequest(req)
	if err != nil {
		// Not distributable (chaos run, unkeyable request): decline and let
		// the runner execute locally.
		return runner.Result{}, false
	}
	u, err := c.enqueue(key, req.Label(), payload)
	if err != nil {
		return runner.Result{}, false
	}
	select {
	case <-u.done:
	case <-ctx.Done():
		return runner.Result{Err: ctx.Err()}, true
	}
	res, err := DecodeResult(u.wire, req)
	if err != nil {
		// Cannot happen for an accepted result (Complete validates), but a
		// defensive error beats a nil-Activity panic downstream.
		return runner.Result{Err: err}, true
	}
	return res, true
}

// enqueue registers a unit (or joins the existing one — fleet-wide dedup by
// content key).
func (c *Coordinator) enqueue(key, label string, payload []byte) (*unit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if u, ok := c.units[key]; ok {
		return u, nil
	}
	now := c.now()
	u := &unit{
		key:     key,
		label:   label,
		payload: payload,
		state:   statePending,
		// The trace ID is a visible prefix of the content key, so a span in
		// any process's trace can be joined back to cache entries, ledger
		// rows, and run-log lines naming the same simulation.
		trace:     telemetry.NewTraceContext(key),
		submitted: now,
		queuedAt:  now,
		done:      make(chan struct{}),
	}
	c.units[key] = u
	c.fifo = append(c.fifo, u)
	c.tmPending.Set(float64(len(c.fifo)))
	c.wakeLocked()
	return u, nil
}

// ---------------------------------------------------------------------------
// Worker protocol.

// Register adds a worker to the fleet and returns its coordinator-assigned
// identity.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return RegisterResponse{}, ErrClosed
	}
	name := req.Name
	if name == "" {
		name = "worker"
	}
	c.nextID++
	w := &workerState{
		id:      fmt.Sprintf("%s#%d", name, c.nextID),
		name:    name,
		workers: req.Workers,
		state:   "live",
		last:    c.now(),
	}
	c.workers[w.id] = w
	c.tmJoined.Inc()
	c.updateLiveLocked()
	c.opts.Bus.Publish(progress.Event{Kind: progress.KindWorkerJoined, Worker: w.name})
	return RegisterResponse{
		WorkerID:        w.id,
		LeaseTTLSeconds: c.opts.LeaseTTL.Seconds(),
		Protocol:        ProtocolVersion,
		CoordUnixMicro:  c.now().UnixMicro(),
	}, nil
}

// Deregister is a worker's clean goodbye: any leases it still holds go back
// to the queue immediately (no TTL wait).
func (c *Coordinator) Deregister(req DeregisterRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok || w.state != "live" {
		return
	}
	if req.Snapshot != nil {
		w.snap = req.Snapshot
	}
	w.state = "drained"
	c.reclaimLocked(w.id, "worker drained")
	c.updateLiveLocked()
	c.opts.Bus.Publish(progress.Event{Kind: progress.KindWorkerDrained, Worker: w.name})
}

// Lease hands out up to max ready units, long-polling up to wait when the
// queue is empty. An unknown worker ID (a coordinator restart, or a worker
// declared lost that came back) gets an error so the worker re-registers.
func (c *Coordinator) Lease(ctx context.Context, workerID string, max int, wait time.Duration) (LeaseResponse, error) {
	if max < 1 {
		max = 1
	}
	deadline := c.now().Add(wait)
	for {
		c.mu.Lock()
		w, ok := c.workers[workerID]
		if !ok || w.state == "lost" || w.state == "drained" {
			c.mu.Unlock()
			return LeaseResponse{}, fmt.Errorf("fabric: unknown worker %q", workerID)
		}
		w.last = c.now()
		if c.closed {
			c.mu.Unlock()
			return LeaseResponse{Closing: true}, nil
		}
		units := c.takeLocked(w.id, max)
		wake := c.wake
		c.mu.Unlock()
		if len(units) > 0 {
			return LeaseResponse{Units: units}, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return LeaseResponse{}, nil
		}
		// Re-check every 200ms even without a wake: a unit in retry backoff
		// becomes ready by clock, not by event.
		tick := 200 * time.Millisecond
		if remain < tick {
			tick = remain
		}
		select {
		case <-wake:
		case <-time.After(tick):
		case <-ctx.Done():
			return LeaseResponse{}, ctx.Err()
		}
	}
}

// takeLocked pops up to max dispatch-ready units off the pending queue and
// leases them to workerID. Callers hold c.mu.
func (c *Coordinator) takeLocked(workerID string, max int) []Unit {
	now := c.now()
	workerName := workerID
	if w, ok := c.workers[workerID]; ok {
		workerName = w.name
	}
	var out []Unit
	kept := c.fifo[:0]
	for _, u := range c.fifo {
		if len(out) < max && !u.notBefore.After(now) {
			u.state = stateLeased
			u.attempt++
			u.leasedTo = workerID
			u.leaseExpiry = now.Add(c.opts.LeaseTTL)
			c.tmQueueWait.Observe(now.Sub(u.queuedAt).Seconds())
			u.hops = append(u.hops, &hop{worker: workerName, workerID: workerID, leased: now})
			out = append(out, Unit{
				Key: u.key, Label: u.label, Attempt: u.attempt,
				// The worker's spans parent under this lease hop.
				Trace:   u.trace.Child("leased", u.attempt),
				Payload: u.payload,
			})
		} else {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(c.fifo); i++ {
		c.fifo[i] = nil
	}
	c.fifo = kept
	c.tmPending.Set(float64(len(c.fifo)))
	return out
}

// Heartbeat extends the worker's leases and reports the keys it no longer
// owns (reclaimed and possibly re-dispatched elsewhere) so it can abandon
// them.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if w, ok := c.workers[req.WorkerID]; ok {
		w.last = now
		if req.ClockRTTMicros > 0 {
			w.offsetMicros, w.rttMicros = req.ClockOffsetMicros, req.ClockRTTMicros
		}
	}
	resp := HeartbeatResponse{CoordUnixMicro: now.UnixMicro()}
	for _, key := range req.Keys {
		u, ok := c.units[key]
		if ok && u.state == stateLeased && u.leasedTo == req.WorkerID {
			u.leaseExpiry = now.Add(c.opts.LeaseTTL)
		} else {
			resp.Expired = append(resp.Expired, key)
		}
	}
	return resp
}

// Complete records delivered results under the accept-once rule:
//
//   - The first structurally valid result for a unit wins, no matter which
//     dispatch attempt produced it — a late result from a lease that already
//     expired is accepted if the re-dispatch hasn't finished yet (the
//     simulator's determinism makes both copies bit-identical).
//   - Any later result for a done unit is counted and discarded.
//   - A corrupt result (unknown key, or neither activity nor error) rejects
//     the delivery; if its sender holds the unit's lease, that unit
//     re-enters the queue immediately rather than waiting out its lease.
//   - A transient worker-side failure from the leaseholder re-enters the
//     queue (bounded by MaxAttempts); a deterministic simulation error is
//     final — every worker would reproduce it, exactly as a local run would.
//   - A failure from a worker that no longer holds the lease (it expired)
//     is stale: the unit already waits in the queue or runs elsewhere, so
//     the failure leaves it alone.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if w, ok := c.workers[req.WorkerID]; ok {
		w.last = now
		if req.ClockRTTMicros > 0 {
			w.offsetMicros, w.rttMicros = req.ClockOffsetMicros, req.ClockRTTMicros
		}
		if req.Snapshot != nil {
			w.snap = req.Snapshot
		}
	}
	var resp CompleteResponse
	for _, wr := range req.Results {
		u, ok := c.units[wr.Key]
		if !ok {
			resp.Rejected++
			c.corrupt++
			c.tmCorrupt.Inc()
			continue
		}
		if u.state == stateDone {
			resp.Duplicates++
			c.duplicates++
			c.tmDuplicate.Inc()
			c.opts.Bus.Publish(progress.Event{Kind: progress.KindUnitDuplicate, Sim: u.label, Worker: req.WorkerID})
			continue
		}
		// Stamp the delivering worker's execution bracket onto its open hop
		// (if it still holds one) before the outcome decides the hop's fate —
		// even a requeued attempt keeps its "ran from/to" record in the trace.
		if h := openHop(u, req.WorkerID); h != nil {
			h.startedW = wr.StartedUnixMicro
			h.finishedW = wr.FinishedUnixMicro
		}
		holds := u.state == stateLeased && u.leasedTo == req.WorkerID
		if wr.Err == "" && wr.Activity == nil {
			// Structurally corrupt: claims success but carries no ground
			// truth. Recover the unit now instead of waiting for the lease.
			resp.Rejected++
			c.corrupt++
			c.tmCorrupt.Inc()
			if holds {
				c.requeueLocked(u, "corrupt result")
			}
			continue
		}
		if wr.Err != "" && wr.Transient {
			// The worker's own retries are exhausted; give the unit to
			// another worker (or fail it past the dispatch budget).
			if holds {
				c.requeueLocked(u, fmt.Sprintf("transient failure: %s", wr.Err))
			}
			resp.Accepted++
			continue
		}
		if h := openHop(u, req.WorkerID); h != nil {
			h.ended = now
			if wr.Err != "" {
				h.outcome = "failed"
			} else {
				h.outcome = "merged"
			}
			c.tmLeaseAge.Observe(now.Sub(h.leased).Seconds())
		}
		c.finishLocked(u, wr, req.WorkerID)
		resp.Accepted++
	}
	return resp
}

// openHop finds the unit's live hop held by workerID (empty matches any).
// Callers hold c.mu.
func openHop(u *unit, workerID string) *hop {
	for i := len(u.hops) - 1; i >= 0; i-- {
		h := u.hops[i]
		if h.ended.IsZero() && (workerID == "" || h.workerID == workerID) {
			return h
		}
	}
	return nil
}

// finishLocked transitions a unit to done and releases its waiters. A unit
// still waiting in the queue (a late result for a reclaimed lease) leaves
// it, so it is never leased again. A unit another worker has re-leased
// since loses that lease: its hop closes as "superseded", so the merged
// trace shows no live lease on a done unit. Callers hold c.mu.
func (c *Coordinator) finishLocked(u *unit, wr WireResult, workerID string) {
	switch u.state {
	case statePending:
		c.fifo = slices.DeleteFunc(c.fifo, func(q *unit) bool { return q == u })
		c.tmPending.Set(float64(len(c.fifo)))
	case stateLeased:
		if h := openHop(u, u.leasedTo); h != nil {
			h.ended = c.now()
			h.outcome = "superseded"
		}
	}
	u.state = stateDone
	u.leasedTo = ""
	u.wire = wr
	u.failed = wr.Err != ""
	u.mergedAt = c.now()
	if w, ok := c.workers[workerID]; ok {
		u.mergedBy = w.name
		if u.failed {
			w.failed++
		} else {
			w.completed++
		}
	}
	c.tmCompleted.Inc()
	close(u.done)
}

// requeueLocked puts a leased unit back in the dispatch queue with
// exponential, per-key-jittered backoff — or fails it permanently once the
// dispatch budget is spent. A unit that is not leased (already queued, or
// done) is left alone. Callers hold c.mu.
func (c *Coordinator) requeueLocked(u *unit, reason string) {
	if u.state != stateLeased {
		return
	}
	now := c.now()
	// Close the leaseholder's hop so the merged trace shows the doomed
	// attempt with its recovery reason and the requeue-latency histogram
	// sees how long the fabric took to notice.
	if h := openHop(u, u.leasedTo); h != nil {
		h.ended = now
		h.outcome = "requeued: " + reason
		c.tmRequeueLat.Observe(now.Sub(h.leased).Seconds())
	}
	if u.attempt >= c.opts.MaxAttempts {
		// Permanent and deliberately non-transient: the submitting runner
		// must report it, not retry a unit the whole fleet already failed.
		c.finishLocked(u, WireResult{
			Key: u.key,
			Err: fmt.Sprintf("fabric: unit %s (%s) failed after %d dispatch attempts: %s",
				short(u.key), u.label, u.attempt, reason),
		}, "")
		return
	}
	backoff := c.opts.RetryBackoff << uint(min(u.attempt-1, 4))
	backoff += jitter(u.key, u.attempt, c.opts.RetryBackoff)
	u.state = statePending
	u.leasedTo = ""
	u.notBefore = now.Add(backoff)
	u.queuedAt = now
	c.fifo = append(c.fifo, u)
	c.requeues++
	c.tmRequeued.Inc()
	c.tmPending.Set(float64(len(c.fifo)))
	c.opts.Bus.Publish(progress.Event{Kind: progress.KindUnitRequeued, Sim: u.label, Attempt: u.attempt + 1, Err: reason})
	c.wakeLocked()
}

// reclaimLocked requeues every unit leased to workerID, returning the count.
// Callers hold c.mu.
func (c *Coordinator) reclaimLocked(workerID, reason string) int {
	n := 0
	for _, u := range c.units {
		if u.state == stateLeased && u.leasedTo == workerID {
			c.requeueLocked(u, reason)
			n++
		}
	}
	return n
}

func (c *Coordinator) updateLiveLocked() {
	live := 0
	for _, w := range c.workers {
		if w.state == "live" {
			live++
		}
	}
	c.tmLive.Set(float64(live))
}

// jitter derives a deterministic per-(key,attempt) delay in [0, base), so
// reclaimed units spread out without the coordinator consuming entropy (the
// repository's reproducibility discipline: identical failure sequences yield
// identical schedules).
func jitter(key string, attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", key, attempt)))
	return time.Duration(binary.LittleEndian.Uint64(h[:8]) % uint64(base))
}

// sweep is the lease reaper: it expires stale leases and declares workers
// lost after 2×TTL of silence, reclaiming their units.
func (c *Coordinator) sweep() {
	defer close(c.sweepDone)
	tick := c.opts.LeaseTTL / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.sweepOnce()
		}
	}
}

func (c *Coordinator) sweepOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, w := range c.workers {
		if w.state == "live" && now.Sub(w.last) > 2*c.opts.LeaseTTL {
			w.state = "lost"
			n := c.reclaimLocked(w.id, "worker lost")
			c.tmLost.Inc()
			c.updateLiveLocked()
			c.opts.Bus.Publish(progress.Event{Kind: progress.KindWorkerLost, Worker: w.name, Count: n})
		}
	}
	for _, u := range c.units {
		if u.state == stateLeased && u.leaseExpiry.Before(now) {
			c.requeueLocked(u, "lease expired")
		}
	}
	// Units coming out of retry backoff become ready by clock; nudge any
	// long-poll waiters to re-scan.
	c.wakeLocked()
}

// ---------------------------------------------------------------------------
// Status.

// Fleet snapshots the worker table and queue counters for /status and the
// dashboard.
func (c *Coordinator) Fleet() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	fs := FleetStatus{Queue: QueueStatus{
		Requeues:   c.requeues,
		Duplicates: c.duplicates,
		Corrupt:    c.corrupt,
	}}
	leases := map[string]int{}
	for _, u := range c.units {
		switch u.state {
		case statePending:
			fs.Queue.Pending++
		case stateLeased:
			fs.Queue.Leased++
			leases[u.leasedTo]++
		case stateDone:
			if u.failed {
				fs.Queue.Failed++
			} else {
				fs.Queue.Done++
			}
		}
	}
	for _, w := range c.workers {
		fs.Workers = append(fs.Workers, WorkerStatus{
			Name:               w.name,
			State:              w.state,
			Workers:            w.workers,
			Leased:             leases[w.id],
			Completed:          w.completed,
			Failed:             w.failed,
			LastSeenSeconds:    now.Sub(w.last).Seconds(),
			ClockOffsetSeconds: float64(w.offsetMicros) / 1e6,
		})
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].Name < fs.Workers[j].Name })
	return fs
}

// FederatedSnapshot merges the workers' pushed telemetry snapshots into the
// coordinator's own registry snapshot (telemetry.Federate): the fleet-wide
// /metrics view. With no registry and no worker snapshots it degenerates to
// an empty snapshot; with workers but no local registry the worker series
// still federate.
func (c *Coordinator) FederatedSnapshot() telemetry.Snapshot {
	local := c.opts.Registry.Snapshot()
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if w.snap != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	workers := make(map[string]telemetry.Snapshot, len(ids))
	for _, id := range ids {
		w := c.workers[id]
		// Label by advertised name; a name clash (two workers launched with
		// the same -name) falls back to the uniquified coordinator ID, in
		// deterministic ID order so reruns label identically.
		key := w.name
		if _, dup := workers[key]; dup {
			key = w.id
		}
		workers[key] = *w.snap
	}
	c.mu.Unlock()
	return telemetry.Federate(local, workers)
}

// ---------------------------------------------------------------------------
// HTTP surface.

// Handler returns the coordinator's HTTP mux: the worker protocol.
// obsserver mounts it under the same server that serves /status and the
// dashboard.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Register(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST "+PathDeregister, func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		c.Deregister(req)
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitSeconds * float64(time.Second))
		resp, err := c.Lease(r.Context(), req.WorkerID, req.Max, wait)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Heartbeat(req))
	})
	mux.HandleFunc("POST "+PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Complete(req))
	})
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
