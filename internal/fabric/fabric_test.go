package fabric

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// testRequest builds a small representative simulation request.
func testRequest(cfg *uarch.Config, w *workloads.Workload, smt int) runner.Request {
	return runner.Request{Cfg: cfg, W: w, SMT: smt,
		Budget: 6000 / uint64(smt), Warmup: 500, MaxCycles: 10_000_000}
}

func TestCodecRoundTripPreservesContentKey(t *testing.T) {
	req := testRequest(uarch.POWER10(), workloads.Compress(), 2)
	payload, key, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRequest(payload, key)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := runner.ContentKey(dec)
	if !ok || got != key {
		t.Fatalf("round-trip key = %s, want %s", got, key)
	}
	// A payload delivered under the wrong unit key must be refused.
	other, otherKey, err := EncodeRequest(testRequest(uarch.POWER9(), workloads.Compress(), 1))
	if err != nil {
		t.Fatal(err)
	}
	_ = otherKey
	if _, err := DecodeRequest(other, key); err == nil {
		t.Fatal("decode accepted a payload whose content key does not match the unit")
	}
}

func TestChaosRequestsAreNotDistributable(t *testing.T) {
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.Chaos = &runner.ChaosSpec{PanicFirst: 1}
	if _, _, err := EncodeRequest(req); err == nil {
		t.Fatal("chaos request encoded for the wire; its failure budget must stay process-local")
	}
}

// startFleet launches a coordinator behind an httptest server plus n workers,
// returning the executor-wired coordinator and a cleanup.
func startFleet(t *testing.T, n int, chaos ...*WorkerChaos) *Coordinator {
	t.Helper()
	coord := NewCoordinator(CoordinatorOptions{
		LeaseTTL:     2 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
	})
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		var c *WorkerChaos
		if i < len(chaos) {
			c = chaos[i]
		}
		w := NewWorker(runner.New(2), WorkerOptions{
			Coordinator: srv.URL,
			Name:        "testworker",
			PollWait:    100 * time.Millisecond,
			Chaos:       c,
		})
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < n; i++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("worker did not drain")
			}
		}
		coord.Close()
		srv.Close()
	})
	return coord
}

func fleetRequests() []runner.Request {
	return []runner.Request{
		testRequest(uarch.POWER10(), workloads.Compress(), 1),
		testRequest(uarch.POWER10(), workloads.Compress(), 2),
		testRequest(uarch.POWER9(), workloads.Compress(), 1),
		testRequest(uarch.POWER10(), workloads.Daxpy(64, 8), 1),
	}
}

// TestFleetMatchesLocalRun is the determinism contract end to end: a runner
// whose executor ships every simulation through the HTTP fabric must return
// results bit-identical to a plain local runner, for every fleet size.
func TestFleetMatchesLocalRun(t *testing.T) {
	local := runner.New(2)
	want := local.RunAll(fleetRequests())

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord := startFleet(t, workers)

			r := runner.New(2)
			r.SetExecutor(coord.Execute)
			got := r.RunAll(fleetRequests())

			for i := range want {
				if want[i].Err != nil || got[i].Err != nil {
					t.Fatalf("request %d: local err %v, fleet err %v", i, want[i].Err, got[i].Err)
				}
				if !reflect.DeepEqual(want[i].Activity, got[i].Activity) {
					t.Errorf("request %d: fleet activity differs from local", i)
				}
				if !reflect.DeepEqual(want[i].Report, got[i].Report) {
					t.Errorf("request %d: fleet report differs from local", i)
				}
			}
			st := r.Stats()
			if st.Remote == 0 {
				t.Error("no simulations ran remotely")
			}
			if st.Remote != st.Misses {
				t.Errorf("%d of %d unique simulations ran locally on the coordinator; all should have shipped",
					st.Misses-st.Remote, st.Misses)
			}
			fs := coord.Fleet()
			if fs.Queue.Done != int(st.Remote) {
				t.Errorf("fleet done = %d, runner remote = %d", fs.Queue.Done, st.Remote)
			}
		})
	}
}

// TestFleetSurvivesCorruptWorker injects a corrupt-response worker next to a
// healthy one: results must stay bit-identical and the corruption must be
// visible in the queue accounting.
func TestFleetSurvivesCorruptWorker(t *testing.T) {
	coord := startFleet(t, 2, &WorkerChaos{Mode: "corrupt", After: 0})

	local := runner.New(2)
	want := local.RunAll(fleetRequests())

	r := runner.New(2)
	r.SetExecutor(coord.Execute)
	got := r.RunAll(fleetRequests())

	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("request %d failed through fleet: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Activity, got[i].Activity) {
			t.Errorf("request %d: fleet activity differs from local under chaos", i)
		}
	}
}

func TestAcceptOnceAndLateResult(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour})
	defer coord.Close()

	regA, _ := coord.Register(RegisterRequest{Name: "a"})
	regB, _ := coord.Register(RegisterRequest{Name: "b"})

	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	u, err := coord.enqueue(key, "test", payload)
	if err != nil {
		t.Fatal(err)
	}

	lease, err := coord.Lease(context.Background(), regA.WorkerID, 1, 0)
	if err != nil || len(lease.Units) != 1 {
		t.Fatalf("lease A: %v, %d units", err, len(lease.Units))
	}
	// Simulate a lease expiry: force the unit back and hand it to B.
	coord.mu.Lock()
	coord.requeueLocked(u, "test expiry")
	u.notBefore = time.Time{}
	coord.mu.Unlock()
	lease, err = coord.Lease(context.Background(), regB.WorkerID, 1, 0)
	if err != nil || len(lease.Units) != 1 {
		t.Fatalf("lease B: %v, %d units", err, len(lease.Units))
	}
	if lease.Units[0].Attempt != 2 {
		t.Fatalf("re-dispatch attempt = %d, want 2", lease.Units[0].Attempt)
	}

	// A's late result arrives first: determinism makes it as good as B's, so
	// it must be accepted.
	res := runner.New(1).Do(req)
	wire := EncodeResult(key, res)
	resp := coord.Complete(CompleteRequest{WorkerID: regA.WorkerID, Results: []WireResult{wire}})
	if resp.Accepted != 1 {
		t.Fatalf("late result not accepted: %+v", resp)
	}
	select {
	case <-u.done:
	default:
		t.Fatal("unit not released to waiters after acceptance")
	}
	// B finishes too: accept-once discards and counts the duplicate.
	resp = coord.Complete(CompleteRequest{WorkerID: regB.WorkerID, Results: []WireResult{wire}})
	if resp.Duplicates != 1 || resp.Accepted != 0 {
		t.Fatalf("duplicate not discarded: %+v", resp)
	}
	if fs := coord.Fleet(); fs.Queue.Duplicates != 1 || fs.Queue.Requeues != 1 {
		t.Errorf("queue accounting = %+v, want 1 duplicate, 1 requeue", fs.Queue)
	}
	// A's result superseded B's lease: the merged trace closes B's hop
	// rather than showing a live lease on a done unit.
	outcomes := map[string]string{}
	for _, e := range traceEventsOf(t, coord) {
		if strings.HasPrefix(e.Name, "leased:") {
			outcomes[e.Name], _ = e.Args["outcome"].(string)
		}
	}
	if want := map[string]string{"leased:a": "requeued: test expiry", "leased:b": "superseded"}; !reflect.DeepEqual(outcomes, want) {
		t.Errorf("lease outcomes %v, want %v", outcomes, want)
	}
}

func TestCorruptResultRequeuesUnit(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, RetryBackoff: time.Nanosecond})
	defer coord.Close()
	reg, _ := coord.Register(RegisterRequest{Name: "w"})

	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, _ := EncodeRequest(req)
	if _, err := coord.enqueue(key, "test", payload); err != nil {
		t.Fatal(err)
	}
	if lease, _ := coord.Lease(context.Background(), reg.WorkerID, 1, 0); len(lease.Units) != 1 {
		t.Fatal("lease failed")
	}
	// Success claim with no ground truth: structurally corrupt.
	resp := coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, Results: []WireResult{{Key: key}}})
	if resp.Rejected != 1 {
		t.Fatalf("corrupt result not rejected: %+v", resp)
	}
	// An unknown key is corruption too.
	resp = coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, Results: []WireResult{{Key: "feedbeef"}}})
	if resp.Rejected != 1 {
		t.Fatalf("unknown-key result not rejected: %+v", resp)
	}
	fs := coord.Fleet()
	if fs.Queue.Corrupt != 2 {
		t.Errorf("corrupt count = %d, want 2", fs.Queue.Corrupt)
	}
	if fs.Queue.Pending != 1 {
		t.Errorf("unit not requeued after corrupt result: %+v", fs.Queue)
	}
}

// testUnit enters req into the coordinator's queue and returns its unit.
func testUnit(t testing.TB, coord *Coordinator, req runner.Request) *unit {
	t.Helper()
	payload, key, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	u, err := coord.enqueue(key, req.Label(), payload)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// queueFault reports the first broken queue invariant: every queued unit is
// pending and queued once, Fleet's pending count is the queue's length, and
// a unit whose waiters were released is done, never leased again, with
// every lease hop closed.
func queueFault(coord *Coordinator) error {
	fs := coord.Fleet()
	coord.mu.Lock()
	defer coord.mu.Unlock()
	queued := map[*unit]bool{}
	for _, u := range coord.fifo {
		if u.state != statePending {
			return fmt.Errorf("%s unit %s in the queue", u.state, short(u.key))
		}
		if queued[u] {
			return fmt.Errorf("unit %s queued twice", short(u.key))
		}
		queued[u] = true
	}
	if fs.Queue.Pending != len(coord.fifo) {
		return fmt.Errorf("Fleet reads %d pending, the queue holds %d", fs.Queue.Pending, len(coord.fifo))
	}
	for _, u := range coord.units {
		select {
		case <-u.done:
			if u.state != stateDone {
				return fmt.Errorf("released unit %s is %s", short(u.key), u.state)
			}
			if h := openHop(u, ""); h != nil {
				return fmt.Errorf("released unit %s has an open lease hop to %s", short(u.key), h.worker)
			}
		default:
		}
	}
	return nil
}

// TestLateResultLeavesQueue: a worker whose lease expired delivers before
// anyone re-leases the unit. The result is accepted, and the unit must
// leave the queue; leased again, its next completion would release its
// waiters a second time.
func TestLateResultLeavesQueue(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, RetryBackoff: time.Nanosecond})
	defer coord.Close()
	regA, _ := coord.Register(RegisterRequest{Name: "a"})
	regB, _ := coord.Register(RegisterRequest{Name: "b"})
	u := testUnit(t, coord, testRequest(uarch.POWER10(), workloads.Compress(), 1))

	if lease, _ := coord.Lease(context.Background(), regA.WorkerID, 1, 0); len(lease.Units) != 1 {
		t.Fatal("lease A failed")
	}
	coord.mu.Lock()
	coord.requeueLocked(u, "test expiry")
	coord.mu.Unlock()

	wire := WireResult{Key: u.key, Activity: &uarch.Activity{Cycles: 1}}
	if resp := coord.Complete(CompleteRequest{WorkerID: regA.WorkerID, Results: []WireResult{wire}}); resp.Accepted != 1 {
		t.Fatalf("late result not accepted: %+v", resp)
	}
	if err := queueFault(coord); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // past the requeue's backoff
	if lease, _ := coord.Lease(context.Background(), regB.WorkerID, 1, 0); len(lease.Units) != 0 {
		t.Fatalf("done unit leased again: %+v", coord.Fleet().Queue)
	}
	if resp := coord.Complete(CompleteRequest{WorkerID: regB.WorkerID, Results: []WireResult{wire}}); resp.Duplicates != 1 {
		t.Fatalf("second result not a duplicate: %+v", resp)
	}
}

// TestStaleFailureLeavesUnitAlone: a transient or corrupt delivery from a
// worker whose lease expired must not requeue the unit. If the unit waits
// in the queue, it must not be queued twice; if another worker holds it,
// that worker keeps its lease and the unit spends no extra attempt.
func TestStaleFailureLeavesUnitAlone(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire WireResult
	}{
		{"transient", WireResult{Err: "worker exploded", Transient: true}},
		{"corrupt", WireResult{}},
	} {
		for _, elsewhere := range []bool{false, true} {
			name := tc.name + "/queued"
			if elsewhere {
				name = tc.name + "/leased-elsewhere"
			}
			t.Run(name, func(t *testing.T) {
				coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, RetryBackoff: time.Nanosecond})
				defer coord.Close()
				regA, _ := coord.Register(RegisterRequest{Name: "a"})
				regB, _ := coord.Register(RegisterRequest{Name: "b"})
				u := testUnit(t, coord, testRequest(uarch.POWER10(), workloads.Compress(), 1))
				if lease, _ := coord.Lease(context.Background(), regA.WorkerID, 1, 0); len(lease.Units) != 1 {
					t.Fatal("lease A failed")
				}
				coord.mu.Lock()
				coord.requeueLocked(u, "test expiry")
				coord.mu.Unlock()
				if elsewhere {
					time.Sleep(time.Millisecond) // past the requeue's backoff
					if lease, _ := coord.Lease(context.Background(), regB.WorkerID, 1, 0); len(lease.Units) != 1 {
						t.Fatal("lease B failed")
					}
				}

				wire := tc.wire
				wire.Key = u.key
				coord.Complete(CompleteRequest{WorkerID: regA.WorkerID, Results: []WireResult{wire}})
				if err := queueFault(coord); err != nil {
					t.Fatal(err)
				}
				fs := coord.Fleet()
				if fs.Queue.Requeues != 1 {
					t.Errorf("requeues = %d, want 1: the stale failure requeued the unit", fs.Queue.Requeues)
				}
				coord.mu.Lock()
				defer coord.mu.Unlock()
				if elsewhere && (u.state != stateLeased || u.leasedTo != regB.WorkerID || u.attempt != 2) {
					t.Errorf("unit is %s to %q at attempt %d, want leased to %q at attempt 2",
						u.state, u.leasedTo, u.attempt, regB.WorkerID)
				}
				if !elsewhere && u.state != statePending {
					t.Errorf("unit is %s, want pending", u.state)
				}
			})
		}
	}
}

func TestUnitFailsPermanentlyAfterMaxAttempts(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		LeaseTTL: time.Hour, MaxAttempts: 2, RetryBackoff: time.Nanosecond})
	defer coord.Close()
	reg, _ := coord.Register(RegisterRequest{Name: "w"})

	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, _ := EncodeRequest(req)
	u, err := coord.enqueue(key, "test", payload)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		lease, err := coord.Lease(context.Background(), reg.WorkerID, 1, 250*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Units) == 0 {
			t.Fatalf("no lease on attempt %d", attempt)
		}
		coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, Results: []WireResult{
			{Key: key, Err: "worker exploded", Transient: true}}})
		select {
		case <-u.done:
			if attempt != 2 {
				t.Fatalf("unit finalized on attempt %d, want 2", attempt)
			}
			res, err := DecodeResult(u.wire, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err == nil || runner.IsTransient(res.Err) {
				t.Fatalf("exhausted unit error = %v, want permanent", res.Err)
			}
			return
		default:
			if attempt >= 2 {
				t.Fatal("unit not finalized after exhausting dispatch budget")
			}
		}
	}
}

func TestLostWorkerLeasesAreReclaimed(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 60 * time.Millisecond})
	defer coord.Close()
	reg, _ := coord.Register(RegisterRequest{Name: "doomed"})

	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	payload, key, _ := EncodeRequest(req)
	if _, err := coord.enqueue(key, "test", payload); err != nil {
		t.Fatal(err)
	}
	if lease, _ := coord.Lease(context.Background(), reg.WorkerID, 1, 0); len(lease.Units) != 1 {
		t.Fatal("lease failed")
	}
	// No heartbeats: the sweeper must expire the lease, then declare the
	// worker lost after 2×TTL of silence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := coord.Fleet()
		if fs.Queue.Requeues >= 1 && len(fs.Workers) == 1 && fs.Workers[0].State == "lost" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never declared lost: %+v", fs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A lost worker's lease call is rejected so it re-registers.
	if _, err := coord.Lease(context.Background(), reg.WorkerID, 1, 0); err == nil {
		t.Fatal("lost worker leased without re-registering")
	}
}

// TestHandlerServesOnlyTheWorkerProtocol: the coordinator serves one
// client, its own sweep, so /fabric/ answers the worker protocol and
// nothing else.
func TestHandlerServesOnlyTheWorkerProtocol(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	status := func(method, path string) int {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{PathRegister, PathDeregister, PathLease, PathHeartbeat, PathComplete} {
		if code := status(http.MethodPost, path); code == http.StatusNotFound {
			t.Errorf("POST %s = 404", path)
		}
	}
	for _, path := range []string{"/fabric/submit", "/fabric/poll", "/fabric/fleet"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if code := status(method, path); code != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", method, path, code)
			}
		}
	}
}

func TestParseChaos(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *WorkerChaos
		ok   bool
	}{
		{"", nil, true},
		{"kill:3", &WorkerChaos{Mode: "kill", After: 3}, true},
		{"stall", &WorkerChaos{Mode: "stall"}, true},
		{"corrupt:0", &WorkerChaos{Mode: "corrupt"}, true},
		{"explode:1", nil, false},
		{"kill:-1", nil, false},
		{"kill:x", nil, false},
	} {
		got, err := ParseChaos(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseChaos(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseChaos(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzCoordinatorQueue drives two workers and two units through
// byte-chosen leases, lease expiries and deliveries, and checks the queue
// invariants (queueFault) after every step. Each byte is one step: its low
// two bits pick the step, the others its worker, unit and result kind.
func FuzzCoordinatorQueue(f *testing.F) {
	// A late result for a requeued unit, then a new lease and delivery.
	f.Add([]byte{leaseStep(0, 1), expireStep(0), completeStep(0, 0, resultValid),
		leaseStep(1, 1), completeStep(1, 0, resultValid)})
	// A stale failure while the unit waits in the queue.
	f.Add([]byte{leaseStep(0, 1), expireStep(0), completeStep(0, 0, resultTransient), leaseStep(1, 2)})
	// Stale failures while another worker holds the unit.
	f.Add([]byte{leaseStep(0, 2), expireStep(0), leaseStep(1, 1),
		completeStep(0, 0, resultCorrupt), completeStep(0, 0, resultTransient), completeStep(1, 0, resultError)})

	var payloads [2][]byte
	var keys [2]string
	for i, req := range []runner.Request{
		testRequest(uarch.POWER10(), workloads.Compress(), 1),
		testRequest(uarch.POWER9(), workloads.Compress(), 1),
	} {
		var err error
		if payloads[i], keys[i], err = EncodeRequest(req); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 512 {
			steps = steps[:512] // the fake clock stays far below the lease TTL
		}
		coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Hour, RetryBackoff: time.Nanosecond})
		defer coord.Close()
		clock := time.Unix(1_000_000, 0)
		coord.now = func() time.Time { return clock }
		var workers [2]string
		for i := range workers {
			reg, err := coord.Register(RegisterRequest{Name: fmt.Sprintf("w%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = reg.WorkerID
		}
		var units [2]*unit
		for i := range units {
			units[i], _ = coord.enqueue(keys[i], "unit", payloads[i])
		}
		for i, b := range steps {
			clock = clock.Add(time.Second) // past every retry backoff
			worker := workers[b>>2&1]
			switch b & 3 {
			case stepLease:
				if _, err := coord.Lease(context.Background(), worker, 1+int(b>>3&1), 0); err != nil {
					t.Fatalf("step %d: lease: %v", i, err)
				}
			case stepExpire:
				u := units[b>>2&1]
				coord.mu.Lock()
				u.leaseExpiry = clock.Add(-time.Nanosecond)
				coord.mu.Unlock()
				coord.sweepOnce()
			default:
				u := units[b>>3&1]
				kind := int(b>>4) % numResults
				wire := WireResult{Key: u.key}
				switch kind {
				case resultValid:
					wire.Activity = &uarch.Activity{Cycles: 1}
				case resultTransient:
					wire.Err, wire.Transient = "worker exploded", true
				case resultError:
					wire.Err = "simulation failed"
				case resultUnknownKey:
					wire.Key = "feedbeef"
				case resultStale:
					wire.Err, wire.Transient = "worker exploded", true
					worker = "restarted#0"
				}
				coord.mu.Lock()
				state, holder, attempt := u.state, u.leasedTo, u.attempt
				coord.mu.Unlock()
				coord.Complete(CompleteRequest{WorkerID: worker, Results: []WireResult{wire}})
				failure := kind == resultTransient || kind == resultCorrupt || kind == resultStale
				coord.mu.Lock()
				nowState, nowHolder, nowAttempt := u.state, u.leasedTo, u.attempt
				coord.mu.Unlock()
				stale := !(state == stateLeased && holder == worker)
				if failure && stale && (nowState != state || nowHolder != holder || nowAttempt != attempt) {
					t.Fatalf("step %d: a failure from %s, which does not hold unit %s, moved it from %s to %q to %s to %q",
						i, worker, short(u.key), state, holder, nowState, nowHolder)
				}
			}
			if err := queueFault(coord); err != nil {
				t.Fatalf("step %d (%#02x): %v", i, b, err)
			}
		}
	})
}

// The steps FuzzCoordinatorQueue decodes from a byte.
const (
	stepLease    = 0 // bit 2: worker; bit 3: lease up to two units
	stepExpire   = 1 // bit 2: unit
	stepComplete = 2 // 2 or 3; bit 2: worker; bit 3: unit; bits 4-7: result kind
)

// The results a fuzzed delivery carries.
const (
	resultValid      = iota
	resultTransient  // a worker-side failure: requeue if the sender holds the lease
	resultError      // a deterministic simulation error: final
	resultCorrupt    // neither activity nor error
	resultUnknownKey // names no unit
	resultStale      // a transient failure from a worker the coordinator never registered
	numResults
)

func leaseStep(worker, n int) byte { return byte(stepLease | worker<<2 | (n-1)<<3) }
func expireStep(unit int) byte     { return byte(stepExpire | unit<<2) }
func completeStep(worker, unit, kind int) byte {
	return byte(stepComplete | worker<<2 | unit<<3 | kind<<4)
}
