package runner

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// lifecycleRig is one runner with every observer attached: a persistent
// cache, a campaign ledger, a progress subscription and a tracer.
type lifecycleRig struct {
	r   *Runner
	dir string
	led *runlog.Ledger
	sub *progress.Subscription
	tr  *telemetry.Tracer
}

func newLifecycleRig(t *testing.T, dir string) *lifecycleRig {
	t.Helper()
	led, err := runlog.Open(t.TempDir(), runlog.Options{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	bus := progress.NewBus()
	sub := bus.Subscribe(64)
	t.Cleanup(sub.Close)
	rig := &lifecycleRig{r: New(1), dir: dir, led: led, sub: sub, tr: telemetry.NewTracer()}
	rig.r.Instrument(telemetry.NewRegistry(), rig.tr)
	rig.r.SetBus(bus)
	rig.r.SetRunLog(led)
	if err := rig.r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	return rig
}

// drain returns the event kinds published since the last drain.
func (g *lifecycleRig) drain() []progress.Kind {
	var kinds []progress.Kind
	for {
		select {
		case ev := <-g.sub.C():
			kinds = append(kinds, ev.Kind)
		default:
			return kinds
		}
	}
}

// counterDelta is b-a over the deterministic Stats counters; the
// scheduling-dependent fields and the byte counts are zeroed.
func counterDelta(a, b Stats) Stats {
	return Stats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		Retries: b.Retries - a.Retries, Panics: b.Panics - a.Panics,
		Timeouts: b.Timeouts - a.Timeouts, Cancels: b.Cancels - a.Cancels,
		Uncached: b.Uncached - a.Uncached, Remote: b.Remote - a.Remote,
		DiskHits: b.DiskHits - a.DiskHits, DiskMisses: b.DiskMisses - a.DiskMisses,
		DiskCorrupt: b.DiskCorrupt - a.DiskCorrupt,
		Predicted:   b.Predicted - a.Predicted, PredictDeclined: b.PredictDeclined - a.PredictDeclined,
	}
}

// TestRequestLifecycle pins what each way of answering a request does: the
// progress events it publishes, the ledger tier it records, the trace spans
// it opens, whether it persists a cache entry, and how it moves the Stats
// counters.
func TestRequestLifecycle(t *testing.T) {
	predicted := func(req Request) (Result, bool) {
		res := req.runCtx(context.Background())
		res.Predicted = &PredictionMeta{CPIRelStd: 0.01, PowerRelStd: 0.02}
		return res, true
	}
	handled := func(ctx context.Context, req Request) (Result, bool) {
		res := req.runCtx(ctx)
		res.Attempts = 1
		return res, true
	}
	declined := func(context.Context, Request) (Result, bool) { return Result{}, false }
	started, finished := progress.KindSimStarted, progress.KindSimFinished

	cases := []struct {
		name    string
		req     func() Request
		setup   func(t *testing.T, g *lifecycleRig, req Request)
		events  []progress.Kind
		tier    string // "" means no ledger record
		spans   int
		persist bool
		delta   Stats
		wantErr bool
	}{
		{
			name: "memo hit",
			setup: func(t *testing.T, g *lifecycleRig, req Request) {
				if res := g.r.Do(req); res.Err != nil {
					t.Fatal(res.Err)
				}
			},
			events: []progress.Kind{progress.KindCacheHit},
			tier:   runlog.TierMemo,
			delta:  Stats{Hits: 1},
		},
		{
			name: "disk hit",
			setup: func(t *testing.T, g *lifecycleRig, req Request) {
				warm := New(1)
				if err := warm.SetCacheDir(g.dir); err != nil {
					t.Fatal(err)
				}
				if res := warm.Do(req); res.Err != nil {
					t.Fatal(res.Err)
				}
			},
			events: []progress.Kind{progress.KindCacheHit},
			tier:   runlog.TierDisk,
			delta:  Stats{Misses: 1, DiskHits: 1},
		},
		{
			name:   "surrogate hit",
			setup:  func(t *testing.T, g *lifecycleRig, _ Request) { g.r.SetPredictor(predicted) },
			events: []progress.Kind{progress.KindCacheHit},
			tier:   runlog.TierSurrogate,
			delta:  Stats{Misses: 1, DiskMisses: 1, Predicted: 1},
		},
		{
			name:    "executor handled",
			setup:   func(t *testing.T, g *lifecycleRig, _ Request) { g.r.SetExecutor(handled) },
			events:  []progress.Kind{started, finished},
			tier:    runlog.TierFabric,
			spans:   1,
			persist: true,
			delta:   Stats{Misses: 1, DiskMisses: 1, Remote: 1},
		},
		{
			// An executor that declines leaves the run to the local pool,
			// inside the one span and sim_started it already opened.
			name:    "executor declined",
			setup:   func(t *testing.T, g *lifecycleRig, _ Request) { g.r.SetExecutor(declined) },
			events:  []progress.Kind{started, finished},
			tier:    runlog.TierRun,
			spans:   1,
			persist: true,
			delta:   Stats{Misses: 1, DiskMisses: 1},
		},
		{
			name:    "local run",
			events:  []progress.Kind{started, finished},
			tier:    runlog.TierRun,
			spans:   1,
			persist: true,
			delta:   Stats{Misses: 1, DiskMisses: 1},
		},
		{
			// Chaos requests bypass the disk and the ledger.
			name: "transient failure then retry",
			req: func() Request {
				return chaosRequest(&ChaosSpec{FailFirst: 1})
			},
			setup:  func(t *testing.T, g *lifecycleRig, _ Request) { g.r.SetPolicy(Policy{MaxAttempts: 2}) },
			events: []progress.Kind{started, progress.KindSimRetried, finished},
			spans:  1,
			delta:  Stats{Misses: 1, Retries: 1},
		},
		{
			name: "deterministic error",
			req: func() Request {
				return Request{Cfg: uarch.POWER10(), W: workloads.Compress(), SMT: 99, Budget: 100, MaxCycles: 1000}
			},
			events:  []progress.Kind{started, progress.KindSimFailed},
			tier:    runlog.TierRun,
			spans:   1,
			delta:   Stats{Misses: 1, DiskMisses: 1},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
			if tc.req != nil {
				req = tc.req()
			}
			g := newLifecycleRig(t, t.TempDir())
			if tc.setup != nil {
				tc.setup(t, g, req)
			}
			g.drain()
			spans := g.tr.Len()
			records, _ := g.led.Appended()
			before := g.r.Stats()

			res := g.r.Do(req)
			if (res.Err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", res.Err, tc.wantErr)
			}
			after := g.r.Stats()

			if got := g.drain(); !reflect.DeepEqual(got, tc.events) {
				t.Errorf("events = %v, want %v", got, tc.events)
			}
			tier := ""
			if n, _ := g.led.Appended(); n == records+1 {
				tier = g.led.Recent(1)[0].Tier
			} else if n != records {
				t.Errorf("ledger grew by %d records, want at most 1", n-records)
			}
			if tier != tc.tier {
				t.Errorf("ledger tier = %q, want %q", tier, tc.tier)
			}
			if got := g.tr.Len() - spans; got != tc.spans {
				t.Errorf("spans = %d, want %d", got, tc.spans)
			}
			if got := after.DiskWrittenBytes > before.DiskWrittenBytes; got != tc.persist {
				t.Errorf("persisted = %v, want %v", got, tc.persist)
			}
			if tc.persist {
				k, _ := keyOf(req)
				if _, err := os.Stat(g.r.diskPath(k)); err != nil {
					t.Errorf("no cache entry after a persisting run: %v", err)
				}
			}
			if got := counterDelta(before, after); got != tc.delta {
				t.Errorf("stats delta = %+v\nwant %+v", got, tc.delta)
			}
		})
	}
}

// TestContentKeyPinned pins one content key and one blob file name. Cache
// file names, ledger keys and fabric unit keys all derive from the same
// hash, so a change here orphans every existing cache directory and breaks
// key-sorted corpora.
func TestContentKeyPinned(t *testing.T) {
	const want = "168786fc066580037a2eb14f1f4c7c45a65064b1b25d85938d16593e4352bc9f"
	got, ok := ContentKey(testRequest(uarch.POWER10(), workloads.Compress(), 1))
	if !ok || got != want {
		t.Errorf("ContentKey = %q, %v; want %q", got, ok, want)
	}

	dir := t.TempDir()
	r := New(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedJSON(r, "pin", "fp", func() (int, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	const wantBlob = "7e716413714276fece320aee5f2c0313d929fed02e294b90800e7ec11d4b8722.json"
	if _, err := os.Stat(filepath.Join(dir, wantBlob)); err != nil {
		entries, _ := os.ReadDir(dir)
		t.Errorf("blob file %s missing (dir holds %v)", wantBlob, entries)
	}
}
