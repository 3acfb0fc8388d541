package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// traceEventsOf parses a WriteTrace rendering back into events.
func traceEventsOf(t *testing.T, coord *Coordinator) []telemetry.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := coord.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	return tf.TraceEvents
}

// TestMergedTraceStructure drives one unit through the full distributed
// lifecycle — queued, leased to a worker that loses it, requeued, leased to a
// second worker that reports execution timestamps on a skewed clock, merged —
// and asserts the rendered Chrome trace shows the whole chain, with the
// worker-clock execution bracket mapped into its lease on the coordinator's
// timeline. This is the golden structural test for the 2-worker fleet trace.
func TestMergedTraceStructure(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, Registry: reg})
	defer coord.Close()

	regA, _ := coord.Register(RegisterRequest{Name: "alpha"})
	regB, _ := coord.Register(RegisterRequest{Name: "beta"})
	if regA.CoordUnixMicro == 0 || regB.CoordUnixMicro == 0 {
		t.Fatal("register response missing coordinator clock sample")
	}

	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	u, err := coord.enqueue(key, "fig5", payload)
	if err != nil {
		t.Fatal(err)
	}
	if u.trace.TraceID != key[:16] {
		t.Fatalf("unit trace id %q, want content-key prefix %q", u.trace.TraceID, key[:16])
	}

	time.Sleep(2 * time.Millisecond) // queue wait for the first lease
	lease, err := coord.Lease(context.Background(), regA.WorkerID, 1, 0)
	if err != nil || len(lease.Units) != 1 {
		t.Fatalf("lease A: %v, %d units", err, len(lease.Units))
	}
	// The wire unit carries a child trace context derived from the unit's.
	if got := lease.Units[0].Trace; got.TraceID != key[:16] ||
		got.Parent != telemetry.SpanID(key[:16], "leased", 1) {
		t.Fatalf("leased trace context = %+v", got)
	}
	time.Sleep(2 * time.Millisecond) // lease A lives a little, then expires
	coord.mu.Lock()
	coord.requeueLocked(u, "test expiry")
	u.notBefore = time.Time{}
	coord.mu.Unlock()

	time.Sleep(2 * time.Millisecond) // second queued interval
	lease, err = coord.Lease(context.Background(), regB.WorkerID, 1, 0)
	if err != nil || len(lease.Units) != 1 {
		t.Fatalf("lease B: %v, %d units", err, len(lease.Units))
	}

	// Worker B runs on a clock 3s behind the coordinator and says so: its
	// raw timestamps are nonsense on the coordinator timeline until the
	// reported offset maps them back.
	const skew = 3 * time.Second
	res := runner.New(1).Do(req)
	wire := EncodeResult(key, res)
	wire.StartedUnixMicro = time.Now().Add(-skew).UnixMicro()
	time.Sleep(2 * time.Millisecond)
	wire.FinishedUnixMicro = time.Now().Add(-skew).UnixMicro()
	resp := coord.Complete(CompleteRequest{
		WorkerID:          regB.WorkerID,
		Results:           []WireResult{wire},
		ClockOffsetMicros: skew.Microseconds(),
		ClockRTTMicros:    500,
	})
	if resp.Accepted != 1 {
		t.Fatalf("result not accepted: %+v", resp)
	}

	evs := traceEventsOf(t, coord)
	var parent *telemetry.Event
	byName := map[string][]telemetry.Event{}
	for i, e := range evs {
		if e.Ph == "M" {
			continue
		}
		if strings.HasPrefix(e.Name, "unit:") {
			parent = &evs[i]
			continue
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	if parent == nil {
		t.Fatal("no enclosing unit span")
	}
	if parent.Name != "unit:fig5" {
		t.Errorf("unit span name %q, want unit:fig5", parent.Name)
	}
	if parent.Args["trace_id"] != key[:16] || parent.Args["merged"] != true {
		t.Errorf("unit span args = %+v", parent.Args)
	}
	if parent.Args["worker"] != "beta" {
		t.Errorf("merging worker = %v, want beta", parent.Args["worker"])
	}
	if n, _ := parent.Args["attempts"].(float64); n != 2 {
		t.Errorf("attempts = %v, want 2", parent.Args["attempts"])
	}

	if len(byName["queued"]) != 2 {
		t.Errorf("%d queued spans, want 2 (initial + post-requeue)", len(byName["queued"]))
	}
	alpha, beta := byName["leased:alpha"], byName["leased:beta"]
	if len(alpha) != 1 || len(beta) != 1 {
		t.Fatalf("lease spans alpha=%d beta=%d, want 1 each", len(alpha), len(beta))
	}
	if oc, _ := alpha[0].Args["outcome"].(string); !strings.HasPrefix(oc, "requeued") {
		t.Errorf("alpha lease outcome = %q, want requeued prefix", oc)
	}
	if oc, _ := beta[0].Args["outcome"].(string); oc != "merged" {
		t.Errorf("beta lease outcome = %q, want merged", oc)
	}
	running := byName["running"]
	if len(running) != 1 {
		t.Fatalf("%d running spans, want 1 (alpha reported no execution)", len(running))
	}
	// The offset-corrected execution bracket must land inside B's lease —
	// that is the whole point of the clock model.
	r, l := running[0], beta[0]
	if r.Ts < l.Ts || r.Ts+r.Dur > l.Ts+l.Dur {
		t.Errorf("running [%d,%d) escapes lease [%d,%d)", r.Ts, r.Ts+r.Dur, l.Ts, l.Ts+l.Dur)
	}
	if len(byName["shipped"]) != 1 {
		t.Errorf("%d shipped spans, want 1", len(byName["shipped"]))
	}
	if len(byName["merged"]) != 1 || byName["merged"][0].Ph != "i" {
		t.Errorf("merged instant missing or wrong phase: %+v", byName["merged"])
	}
	// Every child sits inside the unit span.
	for name, group := range byName {
		for _, e := range group {
			if e.Ts < parent.Ts || e.Ts+e.Dur > parent.Ts+parent.Dur {
				t.Errorf("%s span [%d,%d) escapes unit span [%d,%d)",
					name, e.Ts, e.Ts+e.Dur, parent.Ts, parent.Ts+parent.Dur)
			}
		}
	}

	// The dispatch-latency histograms saw the same lifecycle: two queue
	// waits (initial + requeue), one recovered lease, one merged lease.
	if n := reg.Histogram("fabric_queue_wait_seconds", telemetry.DurationBuckets()).Count(); n != 2 {
		t.Errorf("queue-wait observations = %d, want 2", n)
	}
	if n := reg.Histogram("fabric_requeue_latency_seconds", telemetry.DurationBuckets()).Count(); n != 1 {
		t.Errorf("requeue-latency observations = %d, want 1", n)
	}
	if n := reg.Histogram("fabric_lease_age_seconds", telemetry.DurationBuckets()).Count(); n != 1 {
		t.Errorf("lease-age observations = %d, want 1", n)
	}
}

// TestTraceInFlightUnit: a unit still leased at dump time renders open-ended
// rather than being dropped or closing the trace invalidly.
func TestTraceInFlightUnit(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour})
	defer coord.Close()
	reg, _ := coord.Register(RegisterRequest{Name: "w"})
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, _ := EncodeRequest(req)
	if _, err := coord.enqueue(key, "live", payload); err != nil {
		t.Fatal(err)
	}
	if lease, _ := coord.Lease(context.Background(), reg.WorkerID, 1, 0); len(lease.Units) != 1 {
		t.Fatal("lease failed")
	}
	evs := traceEventsOf(t, coord)
	var sawOpen bool
	for _, e := range evs {
		if strings.HasPrefix(e.Name, "leased:") {
			if oc, _ := e.Args["outcome"].(string); oc == "open" {
				sawOpen = true
			}
		}
		if e.Ph == "X" && e.Dur < 1 {
			t.Errorf("span %q has non-positive duration %d", e.Name, e.Dur)
		}
	}
	if !sawOpen {
		t.Error("live lease not rendered as an open hop")
	}
}

// TestFederatedSnapshotCollectsWorkers: worker snapshots pushed over
// Complete/Deregister show up in the coordinator's federated scrape under
// worker=<name> and worker=fleet.
func TestFederatedSnapshotCollectsWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("local_only").Add(1)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, Registry: reg})
	defer coord.Close()
	regW, _ := coord.Register(RegisterRequest{Name: "steady"})

	wreg := telemetry.NewRegistry()
	wreg.Counter("sims_total").Add(9)
	snap := wreg.Snapshot()
	coord.Deregister(DeregisterRequest{WorkerID: regW.WorkerID, Snapshot: &snap})

	fed := coord.FederatedSnapshot()
	want := map[string]uint64{"": 0, "steady": 9, telemetry.FleetLabelValue: 9}
	got := map[string]uint64{}
	for _, c := range fed.Counters {
		if c.Name == "sims_total" {
			got[c.Labels[telemetry.WorkerLabelKey]] = c.Value
		}
		if c.Name == "local_only" && len(c.Labels) != 0 {
			t.Errorf("local series grew labels: %+v", c.Labels)
		}
	}
	delete(want, "")
	for k, v := range want {
		if got[k] != v {
			t.Errorf("sims_total{worker=%q} = %d, want %d", k, got[k], v)
		}
	}
}

// TestWorkerClockEstimate: the min-RTT sample wins, and degenerate samples
// are ignored.
func TestWorkerClockEstimate(t *testing.T) {
	w := NewWorker(runner.New(1), WorkerOptions{Coordinator: "http://unused"})
	// First sample: 10ms RTT, coordinator 1s ahead of the midpoint.
	w.updateClock(0, 10_000, 1_005_000)
	off, rtt := w.clockEstimate()
	if rtt != 10_000 || off != 1_000_000 {
		t.Fatalf("first sample: offset %d rtt %d", off, rtt)
	}
	// Worse RTT: discarded even though it disagrees.
	w.updateClock(0, 40_000, 5_020_000)
	if off, rtt = w.clockEstimate(); rtt != 10_000 || off != 1_000_000 {
		t.Fatalf("worse sample replaced the estimate: offset %d rtt %d", off, rtt)
	}
	// Better RTT: wins.
	w.updateClock(100_000, 102_000, 2_101_000)
	if off, rtt = w.clockEstimate(); rtt != 2_000 || off != 2_000_000 {
		t.Fatalf("better sample did not win: offset %d rtt %d", off, rtt)
	}
	// Degenerate samples (no coordinator stamp, negative interval) ignored.
	w.updateClock(0, 1, 0)
	w.updateClock(10, 5, 1000)
	if off, rtt = w.clockEstimate(); rtt != 2_000 || off != 2_000_000 {
		t.Fatalf("degenerate sample accepted: offset %d rtt %d", off, rtt)
	}
}
