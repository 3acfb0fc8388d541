package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// WorkerChaos injects fabric-level failures into a worker for robustness
// drills (scripts/fabric_check.sh and the fabric tests). These are distinct
// from runner.ChaosSpec: they break the *protocol participant*, not the
// simulation, exercising exactly the recovery paths the coordinator
// advertises.
type WorkerChaos struct {
	// Mode is "kill" (exit the process mid-batch, before reporting — the
	// lease-expiry path), "stall" (stop heartbeating and deliver late — the
	// accept-once path), or "corrupt" (deliver a mangled result — the
	// reject-and-requeue path).
	Mode string
	// After is how many units the worker completes normally first.
	After int
}

// ParseChaos parses the CLI "mode:N" form ("kill:3", "stall:1", "corrupt:0");
// a bare "mode" means mode:0.
func ParseChaos(s string) (*WorkerChaos, error) {
	if s == "" {
		return nil, nil
	}
	mode, after, _ := strings.Cut(s, ":")
	c := &WorkerChaos{Mode: mode}
	if after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("fabric: bad chaos trigger count in %q", s)
		}
		c.After = n
	}
	switch c.Mode {
	case "kill", "stall", "corrupt":
		return c, nil
	}
	return nil, fmt.Errorf("fabric: unknown chaos mode %q (want kill|stall|corrupt, optionally :N)", s)
}

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:port).
	Coordinator string
	// Name is the worker's advertised identity; defaults to hostname-pid.
	Name string
	// PollWait is the lease long-poll duration (default 5s).
	PollWait time.Duration
	// Chaos, when non-nil, makes this worker misbehave on purpose.
	Chaos *WorkerChaos
	// Logf receives worker lifecycle lines (nil discards).
	Logf func(format string, args ...any)
	// Registry, when non-nil, is snapshotted and piggybacked on every result
	// delivery (and the final deregister) so the coordinator can federate
	// this worker's telemetry into the fleet-wide /metrics view.
	Registry *telemetry.Registry
	// OnLeaseExpired is invoked (from the heartbeat goroutine) with the unit
	// keys the coordinator reports as no longer ours — the hook cmd/p10worker
	// uses to flight-record a lost lease. Nil ignores the report, matching
	// the previous behavior: the batch still finishes and its late results
	// resolve under the accept-once rule.
	OnLeaseExpired func(keys []string)
	// Exit terminates the process for chaos "kill" (default os.Exit) — a seam
	// so the CLI can dump its flight recorder before dying, and tests can
	// observe the kill without losing the process.
	Exit func(code int)
}

// Worker is the fleet's execution side: it leases content-keyed units from a
// coordinator, runs them on a local runner pool — inheriting every local
// robustness layer: panic recovery, watchdog timeouts, retry policy, and the
// shared persistent disk cache and p10runlog-v1 ledger — and reports
// results, heartbeating while it works. It leases at most as many units as
// the pool runs at once, so a fleet of workers load-balances instead of one
// worker swallowing the queue.
type Worker struct {
	pool   *runner.Runner
	opts   WorkerOptions
	client *http.Client

	id       string
	ttl      time.Duration
	executed int // completed units, for chaos triggers

	mu     sync.Mutex
	inKeys []string // keys currently being executed (heartbeat set)

	// Clock-offset estimate against the coordinator, refreshed by every
	// register/heartbeat exchange and kept at the minimum-RTT sample (the
	// tightest error bound). offsetMicros is (coordinator − worker) µs.
	clockMu      sync.Mutex
	offsetMicros int64
	rttMicros    int64
}

// NewWorker wires a worker to an already-configured runner pool. The caller
// owns the pool's setup (policy, cache dir, run ledger, bus) — the worker
// only feeds it.
func NewWorker(pool *runner.Runner, opts WorkerOptions) *Worker {
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Exit == nil {
		opts.Exit = os.Exit
	}
	return &Worker{pool: pool, opts: opts, client: &http.Client{}}
}

// updateClock folds one NTP-style sample into the offset estimate: the
// coordinator stamped its clock at coordMicro somewhere between our t0 (send)
// and t3 (receive), so offset ≈ coordMicro − (t0+t3)/2 with error bound
// rtt = t3 − t0. The minimum-RTT sample wins: it has the tightest bound.
func (w *Worker) updateClock(t0, t3, coordMicro int64) {
	if coordMicro == 0 || t3 < t0 {
		return
	}
	rtt := t3 - t0
	if rtt <= 0 {
		rtt = 1
	}
	offset := coordMicro - (t0+t3)/2
	w.clockMu.Lock()
	if w.rttMicros == 0 || rtt <= w.rttMicros {
		w.offsetMicros, w.rttMicros = offset, rtt
	}
	w.clockMu.Unlock()
}

// clockEstimate returns the current (offset, rtt) estimate in µs; rtt == 0
// means no exchange has completed yet.
func (w *Worker) clockEstimate() (offset, rtt int64) {
	w.clockMu.Lock()
	defer w.clockMu.Unlock()
	return w.offsetMicros, w.rttMicros
}

// snapshot returns the worker's telemetry snapshot for piggybacking, nil when
// no registry is configured.
func (w *Worker) snapshot() *telemetry.Snapshot {
	if w.opts.Registry == nil {
		return nil
	}
	s := w.opts.Registry.Snapshot()
	return &s
}

// Run is the worker's main loop: register (retrying until the coordinator
// answers), then lease→execute→complete until ctx is canceled or the
// coordinator announces it is closing. On cancellation the worker finishes
// its in-flight batch, reports it, and deregisters — the graceful-drain path
// SIGTERM triggers in cmd/p10worker.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.opts.Logf("worker %s registered as %s (lease ttl %s)", w.opts.Name, w.id, w.ttl)
	defer w.deregister()
	// A coordinator restart is survivable (re-register on 410), but a
	// coordinator that stays unreachable must not pin the worker forever: a
	// drained coordinator tears its HTTP surface down shortly after
	// announcing Closing, and a worker between polls only ever sees the
	// dead address. Bound the continuously-unreachable window at a few
	// lease TTLs and exit so a supervisor can decide what happens next.
	maxUnreachable := 3 * w.ttl
	if maxUnreachable < 30*time.Second {
		maxUnreachable = 30 * time.Second
	}
	var unreachableSince time.Time
	for {
		lease, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// Coordinator unreachable or restarted: back off, re-register if
			// it no longer knows us (it answers 410 Gone).
			if errors.Is(err, errGone) {
				w.opts.Logf("worker %s: lease rejected, re-registering", w.id)
				if rerr := w.register(ctx); rerr != nil {
					return rerr
				}
				continue
			}
			if unreachableSince.IsZero() {
				unreachableSince = time.Now()
			} else if time.Since(unreachableSince) > maxUnreachable {
				return fmt.Errorf("fabric: coordinator unreachable for %s: %w", maxUnreachable, err)
			}
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil
			}
			continue
		}
		unreachableSince = time.Time{}
		if lease.Closing {
			w.opts.Logf("worker %s: coordinator closing, draining", w.id)
			return nil
		}
		if len(lease.Units) == 0 {
			if ctx.Err() != nil {
				return nil
			}
			continue
		}
		// Execute the batch to completion even when ctx is canceled
		// mid-batch: the drain contract is "finish what you hold, report it,
		// leave" — abandoning leased units would force the coordinator
		// through a needless TTL wait.
		results := w.executeBatch(ctx, lease.Units)
		if err := w.complete(results); err != nil {
			w.opts.Logf("worker %s: report failed (%v); coordinator will reclaim the leases", w.id, err)
		}
		if ctx.Err() != nil {
			return nil
		}
	}
}

// errGone marks a lease rejection that requires re-registration.
var errGone = errors.New("fabric: worker unknown to coordinator")

func (w *Worker) register(ctx context.Context) error {
	for {
		var resp RegisterResponse
		t0 := time.Now().UnixMicro()
		err := w.post(ctx, PathRegister, RegisterRequest{Name: w.opts.Name, Workers: w.pool.Workers()}, &resp)
		t3 := time.Now().UnixMicro()
		if err == nil {
			// First clock sample: even a worker whose whole batch finishes
			// before its first heartbeat has an offset estimate to report.
			w.updateClock(t0, t3, resp.CoordUnixMicro)
			if resp.Protocol != ProtocolVersion {
				return fmt.Errorf("fabric: protocol skew: coordinator %q, worker %q", resp.Protocol, ProtocolVersion)
			}
			w.id = resp.WorkerID
			w.ttl = time.Duration(resp.LeaseTTLSeconds * float64(time.Second))
			if w.ttl <= 0 {
				w.ttl = DefaultLeaseTTL
			}
			return nil
		}
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (w *Worker) deregister() {
	// Best-effort, short deadline: the coordinator may already be gone. The
	// final telemetry snapshot rides along so the federated fleet view keeps
	// this worker's counters after it drains.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.post(ctx, PathDeregister, DeregisterRequest{WorkerID: w.id, Snapshot: w.snapshot()}, &struct{}{})
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	err := w.post(ctx, PathLease, LeaseRequest{
		WorkerID:    w.id,
		Max:         w.pool.Workers(),
		WaitSeconds: w.opts.PollWait.Seconds(),
	}, &resp)
	return resp, err
}

// executeBatch runs the leased units on the local pool while a heartbeat
// goroutine keeps their leases alive, then encodes the results — applying
// chaos injection where configured.
func (w *Worker) executeBatch(ctx context.Context, units []Unit) []WireResult {
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = u.Key
	}
	w.mu.Lock()
	w.inKeys = keys
	w.mu.Unlock()

	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	if w.chaosMode() != "stall" || w.executed+len(units) <= w.opts.Chaos.After {
		hbDone.Add(1)
		go w.heartbeatLoop(hbStop, &hbDone)
	}

	// Run the units on the pool: decode failures become error results,
	// valid requests run with full local caching and fault tolerance, each
	// timed on the worker's wall clock. The lease never exceeds the pool's
	// width, so every unit starts at once.
	out := make([]WireResult, len(units))
	ran := make([]bool, len(units))
	runner.ForEach(w.pool.Workers(), len(units), func(i int) {
		u := units[i]
		req, err := DecodeRequest(u.Payload, u.Key)
		if err != nil {
			// A payload the worker cannot verify is an infrastructure
			// problem, not a simulation result: report transient so the
			// coordinator re-dispatches (another worker, or another build,
			// may fare better).
			out[i] = WireResult{Key: u.Key, Err: err.Error(), Transient: true}
			return
		}
		started := time.Now().UnixMicro()
		res := w.pool.DoCtx(ctx, req)
		finished := time.Now().UnixMicro()
		out[i] = EncodeResult(u.Key, res)
		out[i].StartedUnixMicro, out[i].FinishedUnixMicro = started, finished
		ran[i] = true
	})

	close(hbStop)
	hbDone.Wait()
	w.mu.Lock()
	w.inKeys = nil
	w.mu.Unlock()

	for i := range out {
		if ran[i] {
			w.executed++
			w.applyChaos(&out[i], units[i])
		}
	}
	return out
}

func (w *Worker) chaosMode() string {
	if w.opts.Chaos == nil {
		return ""
	}
	return w.opts.Chaos.Mode
}

// applyChaos fires the configured failure once the worker has completed
// Chaos.After units normally.
func (w *Worker) applyChaos(res *WireResult, u Unit) {
	c := w.opts.Chaos
	if c == nil || w.executed <= c.After {
		return
	}
	switch c.Mode {
	case "kill":
		// Die with the batch unreported: the coordinator recovers these
		// units through lease expiry. The Exit seam lets the CLI flush its
		// flight recorder first; the exit code stays 3 (fabric_check.sh and
		// trace_check.sh assert it).
		w.opts.Logf("worker %s: chaos kill after %d unit(s)", w.id, w.executed-1)
		w.opts.Exit(3)
	case "stall":
		// Heartbeats were suppressed for this batch (executeBatch); now
		// outlive the lease before delivering, so the result arrives after
		// the coordinator reclaimed the unit — the accept-once race.
		w.opts.Logf("worker %s: chaos stall on %s", w.id, u.Label)
		time.Sleep(w.ttl + w.ttl/2)
		c.Mode = "" // stall once, then behave
	case "corrupt":
		// Deliver a structurally invalid result (success claim with no
		// ground truth). The coordinator must reject it and requeue.
		w.opts.Logf("worker %s: chaos corrupt on %s", w.id, u.Label)
		res.Activity = nil
		res.Err = ""
		c.Mode = ""
	}
}

// heartbeatLoop extends the in-flight leases every ttl/3 until stopped.
func (w *Worker) heartbeatLoop(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(w.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.mu.Lock()
			keys := append([]string(nil), w.inKeys...)
			w.mu.Unlock()
			if len(keys) == 0 {
				continue
			}
			offset, rtt := w.clockEstimate()
			ctx, cancel := context.WithTimeout(context.Background(), w.ttl/2)
			var resp HeartbeatResponse
			t0 := time.Now().UnixMicro()
			err := w.post(ctx, PathHeartbeat, HeartbeatRequest{
				WorkerID: w.id, Keys: keys,
				ClockOffsetMicros: offset, ClockRTTMicros: rtt,
			}, &resp)
			t3 := time.Now().UnixMicro()
			cancel()
			if err != nil {
				continue
			}
			w.updateClock(t0, t3, resp.CoordUnixMicro)
			if len(resp.Expired) > 0 && w.opts.OnLeaseExpired != nil {
				w.opts.OnLeaseExpired(append([]string(nil), resp.Expired...))
			}
		}
	}
}

func (w *Worker) complete(results []WireResult) error {
	// Retry delivery briefly: a blip here would otherwise cost a full lease
	// TTL of re-execution elsewhere.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		offset, rtt := w.clockEstimate()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var resp CompleteResponse
		err = w.post(ctx, PathComplete, CompleteRequest{
			WorkerID: w.id, Results: results,
			Snapshot:          w.snapshot(),
			ClockOffsetMicros: offset, ClockRTTMicros: rtt,
		}, &resp)
		cancel()
		if err == nil {
			if resp.Duplicates > 0 || resp.Rejected > 0 {
				w.opts.Logf("worker %s: delivery: %d accepted, %d duplicate, %d rejected",
					w.id, resp.Accepted, resp.Duplicates, resp.Rejected)
			}
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return err
}

// post is the worker's single HTTP primitive: JSON in, JSON out.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return errGone
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
