package progress

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: KindSimStarted})
	if b.Active() {
		t.Error("nil bus reports active")
	}
	if b.Subscribe(8) != nil {
		t.Error("nil bus returned a subscription")
	}
	if b.Published() != 0 || b.Dropped() != 0 {
		t.Error("nil bus has counts")
	}
	b.Close()
	NewConsole(nil, nil).Stop()
	if tr := NewTracker(nil); tr != nil {
		t.Error("nil bus returned a tracker")
	}
	var tr *Tracker
	tr.Stop()
	if exps, _, _ := tr.Status(); exps != nil {
		t.Error("nil tracker returned experiments")
	}
}

func TestPublishSubscribeOrderAndSeq(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(64)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindSimStarted, Sim: fmt.Sprintf("s%d", i)})
	}
	b.Close()
	var got []Event
	for ev := range sub.C() {
		got = append(got, ev)
	}
	if len(got) != 10 {
		t.Fatalf("received %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Sim != fmt.Sprintf("s%d", i) {
			t.Errorf("event %d out of order: %q", i, ev.Sim)
		}
		if ev.Time.IsZero() {
			t.Errorf("event %d has zero time", i)
		}
	}
}

func TestNoSubscriberPublishAssignsNoSeq(t *testing.T) {
	b := NewBus()
	b.Publish(Event{Kind: KindSimStarted})
	if got := b.Published(); got != 0 {
		t.Errorf("published = %d with no subscriber, want 0 (fast path must not stamp)", got)
	}
}

func TestSlowSubscriberDropsWithoutBlocking(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Event{Kind: KindCacheHit})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if sub.Dropped() == 0 || b.Dropped() == 0 {
		t.Errorf("expected drops: sub=%d bus=%d", sub.Dropped(), b.Dropped())
	}
	if sub.Dropped()+2 != 100 {
		t.Errorf("dropped %d of 100 with buffer 2, want 98", sub.Dropped())
	}
	sub.Close()
}

func TestMultipleSubscribersSeeSameStream(t *testing.T) {
	b := NewBus()
	a := b.Subscribe(32)
	c := b.Subscribe(32)
	b.Publish(Event{Kind: KindExperimentBegun, Experiment: "fig5"})
	b.Publish(Event{Kind: KindExperimentDone, Experiment: "fig5", Elapsed: 1.5})
	b.Close()
	drain := func(s *Subscription) []Event {
		var out []Event
		for ev := range s.C() {
			out = append(out, ev)
		}
		return out
	}
	ea, ec := drain(a), drain(c)
	if len(ea) != 2 || len(ec) != 2 {
		t.Fatalf("subscriber counts %d/%d, want 2/2", len(ea), len(ec))
	}
	for i := range ea {
		if ea[i].Seq != ec[i].Seq || ea[i].Kind != ec[i].Kind {
			t.Errorf("subscribers diverge at %d: %+v vs %+v", i, ea[i], ec[i])
		}
	}
}

func TestConcurrentPublishersRaceClean(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(4096)
	var wg sync.WaitGroup
	const publishers, per = 8, 50
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Kind: KindSimFinished, Sim: fmt.Sprintf("p%d", p)})
			}
		}(p)
	}
	wg.Wait()
	b.Close()
	seen := map[uint64]bool{}
	n := 0
	for ev := range sub.C() {
		if seen[ev.Seq] {
			t.Errorf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		n++
	}
	if n != publishers*per {
		t.Errorf("received %d events, want %d", n, publishers*per)
	}
}

func TestSubscriptionCloseDetaches(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(8)
	sub.Close()
	sub.Close() // idempotent
	b.Publish(Event{Kind: KindSimStarted})
	if b.Active() {
		t.Error("bus active after last subscriber closed")
	}
	// Channel must be closed.
	if _, ok := <-sub.C(); ok {
		t.Error("closed subscription delivered an event")
	}
}

func TestConsoleRendersExperimentLines(t *testing.T) {
	b := NewBus()
	var buf bytes.Buffer
	con := NewConsole(b, &buf)
	b.Publish(Event{Kind: KindExperimentBegun, Experiment: "fig5"})
	b.Publish(Event{Kind: KindExperimentDone, Experiment: "fig5", Elapsed: 0.7})
	b.Publish(Event{Kind: KindSimRetried, Sim: "daxpy@POWER10/smt1", Attempt: 2})
	b.Publish(Event{Kind: KindSimFailed, Sim: "daxpy@POWER10/smt1", Err: "boom"})
	b.Publish(Event{Kind: KindExperimentFailed, Experiment: "fig6", Err: "bad"})
	b.Publish(Event{Kind: KindCacheHit, Sim: "quiet"}) // not rendered
	con.Stop()
	got := buf.String()
	want := "fig5: 0.7s\n" +
		"retry daxpy@POWER10/smt1 (attempt 2)\n" +
		"sim daxpy@POWER10/smt1 failed: boom\n" +
		"fig6: bad\n"
	if got != want {
		t.Errorf("console output:\n%q\nwant:\n%q", got, want)
	}
	if strings.Contains(got, "quiet") {
		t.Error("console rendered a cache hit")
	}
}

func TestTrackerFoldsStatus(t *testing.T) {
	b := NewBus()
	tr := NewTracker(b)
	b.Publish(Event{Kind: KindExperimentBegun, Experiment: "tableI"})
	b.Publish(Event{Kind: KindSimStarted, Sim: "a"})
	b.Publish(Event{Kind: KindCacheHit, Sim: "a"})
	b.Publish(Event{Kind: KindSimFinished, Sim: "a", Elapsed: 0.1})
	b.Publish(Event{Kind: KindExperimentDone, Experiment: "tableI", Elapsed: 2.5})
	b.Publish(Event{Kind: KindExperimentBegun, Experiment: "fig4"})
	b.Publish(Event{Kind: KindSimRetried, Sim: "b", Attempt: 2})
	b.Publish(Event{Kind: KindSimFailed, Sim: "b", Err: "x"})
	b.Publish(Event{Kind: KindExperimentFailed, Experiment: "fig4", Elapsed: 1.0, Err: "x"})
	b.Publish(Event{Kind: KindSweepDone, Elapsed: 3.5})
	tr.Stop()
	exps, sims, done := tr.Status()
	if !done {
		t.Error("sweep not marked done")
	}
	if len(exps) != 2 {
		t.Fatalf("got %d experiments, want 2", len(exps))
	}
	if exps[0].Name != "tableI" || exps[0].State != "done" || exps[0].Elapsed != 2.5 {
		t.Errorf("tableI status = %+v", exps[0])
	}
	if exps[1].Name != "fig4" || exps[1].State != "failed" || exps[1].Err != "x" {
		t.Errorf("fig4 status = %+v", exps[1])
	}
	want := SimCounts{Started: 1, Finished: 1, Failed: 1, Retried: 1, CacheHits: 1}
	if sims != want {
		t.Errorf("sim counts = %+v, want %+v", sims, want)
	}
}

func TestTrackerRunningElapsedAdvances(t *testing.T) {
	b := NewBus()
	tr := NewTracker(b)
	b.Publish(Event{Kind: KindExperimentBegun, Experiment: "fig2",
		Time: time.Now().Add(-2 * time.Second)})
	// Wait for the fold goroutine to consume the event.
	deadline := time.After(5 * time.Second)
	for {
		exps, _, _ := tr.Status()
		if len(exps) == 1 {
			if exps[0].State != "running" {
				t.Fatalf("state = %q, want running", exps[0].State)
			}
			if exps[0].Elapsed < 1.0 {
				t.Errorf("running elapsed = %.2fs, want >= 1s", exps[0].Elapsed)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("tracker never folded the begun event")
		case <-time.After(time.Millisecond):
		}
	}
	tr.Stop()
}

// BenchmarkPublishNoSubscribers is the overhead guard for the progress bus:
// with no subscriber attached, Publish must be a single atomic load with no
// allocation — the cost every runner execution pays in an unobserved sweep.
func BenchmarkPublishNoSubscribers(b *testing.B) {
	bus := NewBus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: KindSimFinished, Sim: "daxpy@POWER10/smt1"})
	}
}

// BenchmarkPublishOneSubscriber measures the subscribed fast path (buffered
// channel send, no drop).
func BenchmarkPublishOneSubscriber(b *testing.B) {
	bus := NewBus()
	sub := bus.Subscribe(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C() {
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: KindSimFinished, Sim: "daxpy@POWER10/smt1"})
	}
	b.StopTimer()
	bus.Close()
	<-done
}

// TestReplaySince covers the SSE-reconnect backfill: only stamped events are
// buffered, the cut is strictly-greater-than, and the ring stays bounded.
func TestReplaySince(t *testing.T) {
	var nilBus *Bus
	if got := nilBus.ReplaySince(0); got != nil {
		t.Fatalf("nil bus replayed %v", got)
	}
	b := NewBus()
	defer b.Close()
	// No subscriber: publishes are unstamped and must leave no history.
	b.Publish(Event{Kind: KindSimStarted, Sim: "ghost"})
	if got := b.ReplaySince(0); got != nil {
		t.Fatalf("unwatched publish buffered: %v", got)
	}
	sub := b.Subscribe(1)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindSimStarted, Sim: "s"})
	}
	got := b.ReplaySince(4)
	if len(got) != 6 || got[0].Seq != 5 || got[5].Seq != 10 {
		t.Fatalf("ReplaySince(4) = %d events (%v), want seqs 5..10", len(got), got)
	}
	if got := b.ReplaySince(10); got != nil {
		t.Fatalf("ReplaySince(latest) = %v, want nil", got)
	}
	// Overflow: the ring keeps the newest replayCap events.
	for i := 0; i < replayCap; i++ {
		b.Publish(Event{Kind: KindSimStarted, Sim: "s"})
	}
	got = b.ReplaySince(0)
	if len(got) != replayCap {
		t.Fatalf("ring len = %d, want %d", len(got), replayCap)
	}
	// 10 pre-overflow events + replayCap more = latest seq 10+replayCap;
	// the ring holds the newest replayCap of them, so the oldest is seq 11.
	if first := got[0].Seq; first != 11 {
		t.Fatalf("oldest buffered seq = %d, want 11", first)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("ring not contiguous at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}

	// Wrap the ring more than once. Seq s lives in slot (s-1)%replayCap, so
	// seq 2*replayCap sits in the last slot and its successor in slot 0:
	// cutting just past it must read across the physical end of the ring.
	for i := 0; i < replayCap+5; i++ {
		b.Publish(Event{Kind: KindSimStarted, Sim: "s"})
	}
	const latest = 2*replayCap + 15
	got = b.ReplaySince(0)
	if len(got) != replayCap || got[0].Seq != latest-replayCap+1 || got[len(got)-1].Seq != latest {
		t.Fatalf("after two wraps: %d events, seqs %d..%d; want %d..%d",
			len(got), got[0].Seq, got[len(got)-1].Seq, latest-replayCap+1, latest)
	}
	for _, cut := range []uint64{2*replayCap - 1, 2 * replayCap, 2*replayCap + 1} {
		got = b.ReplaySince(cut)
		if want := int(latest - cut); len(got) != want {
			t.Fatalf("ReplaySince(%d) = %d events, want %d", cut, len(got), want)
		}
		for i, ev := range got {
			if ev.Seq != cut+1+uint64(i) {
				t.Fatalf("ReplaySince(%d)[%d].Seq = %d, want %d", cut, i, ev.Seq, cut+1+uint64(i))
			}
		}
	}
}

// BenchmarkPublishFullRing measures a subscribed publish once the replay ring
// is full: the steady state of any long observed campaign.
func BenchmarkPublishFullRing(b *testing.B) {
	bus := NewBus()
	sub := bus.Subscribe(1)
	defer sub.Close()
	for i := 0; i < replayCap; i++ {
		bus.Publish(Event{Kind: KindSimFinished})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: KindSimFinished, Sim: "daxpy@POWER10/smt1"})
	}
}
