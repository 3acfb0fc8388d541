package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"power10sim/internal/progress"
	"power10sim/internal/telemetry"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Note("ignored %d", 1)
	if err := r.WriteJSON(os.Stderr, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Dump("x"); err != nil {
		t.Fatal(err)
	}
	if err := r.DumpFile(filepath.Join(t.TempDir(), "f.json"), "x"); err != nil {
		t.Fatal(err)
	}
	r.ArmSIGQUIT(nil)
	r.Close()
}

// dump writes r's flight record and parses it back.
func dump(t *testing.T, r *Recorder) Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, "unit test"); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDumpIsComplete: the dump reads the bus ring, which Publish fills
// synchronously, so an event published just before the dump is in it.
func TestDumpIsComplete(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		bus := progress.NewBus()
		r := New(Options{Command: "test", Bus: bus})
		bus.Publish(progress.Event{Kind: progress.KindSimFailed, Sim: "a", Err: "boom"})
		d := dump(t, r)
		r.Close()
		bus.Close()
		if len(d.Events) != 1 || d.Events[0].Event == nil || d.Events[0].Event.Kind != progress.KindSimFailed {
			t.Fatalf("trial %d: dump right after sim_failed holds %+v", trial, d.Events)
		}
	}

	// A note between two bus events lands between them in one seq order.
	bus := progress.NewBus()
	defer bus.Close()
	r := New(Options{Command: "test", Bus: bus})
	defer r.Close()
	bus.Publish(progress.Event{Kind: progress.KindSimStarted, Sim: "a"})
	r.Note("between %d", 1)
	bus.Publish(progress.Event{Kind: progress.KindSimFinished, Sim: "a"})
	d := dump(t, r)
	if len(d.Events) != 3 {
		t.Fatalf("dump holds %d entries, want 3: %+v", len(d.Events), d.Events)
	}
	first, note, last := d.Events[0], d.Events[1], d.Events[2]
	if first.Event == nil || first.Event.Kind != progress.KindSimStarted ||
		last.Event == nil || last.Event.Kind != progress.KindSimFinished {
		t.Errorf("outer entries = %+v / %+v, want sim_started / sim_finished events", first, last)
	}
	if note.Kind != "note" || note.Note != "between 1" || note.Event != nil {
		t.Errorf("middle entry = %+v, want the note", note)
	}
	for i, e := range d.Events {
		if i > 0 && e.Seq <= d.Events[i-1].Seq {
			t.Errorf("seq not strictly increasing at %d: %d after %d", i, e.Seq, d.Events[i-1].Seq)
		}
		if e.Time.IsZero() {
			t.Errorf("entry %d has zero time", i)
		}
	}
}

// TestDumpBoundAndOrder: a dump carries the newest DefaultCapacity bus
// events in seq order and counts the older ones as dropped.
func TestDumpBoundAndOrder(t *testing.T) {
	bus := progress.NewBus()
	defer bus.Close()
	r := New(Options{Command: "test", Bus: bus})
	defer r.Close()
	const extra = 6
	for i := 0; i < DefaultCapacity+extra; i++ {
		r.Note("note %d", i)
	}
	d := dump(t, r)
	if len(d.Events) != DefaultCapacity {
		t.Fatalf("dump holds %d entries, want %d", len(d.Events), DefaultCapacity)
	}
	if d.Dropped != extra {
		t.Fatalf("dropped = %d, want %d", d.Dropped, extra)
	}
	// The surviving tail is the most recent entries, in seq order.
	for i, e := range d.Events {
		if want := fmt.Sprintf("note %d", extra+i); e.Kind != "note" || e.Note != want {
			t.Errorf("entry %d = %s %q, want note %q", i, e.Kind, e.Note, want)
		}
		if i > 0 && e.Seq != d.Events[i-1].Seq+1 {
			t.Errorf("seq gap at %d: %d after %d", i, e.Seq, d.Events[i-1].Seq)
		}
	}
}

func TestBusEventsAndAutoDump(t *testing.T) {
	bus := progress.NewBus()
	defer bus.Close()
	path := filepath.Join(t.TempDir(), "auto.json")
	r := New(Options{Command: "test", Bus: bus, DumpPath: path})
	defer r.Close()

	bus.Publish(progress.Event{Kind: progress.KindSimStarted, Sim: "a"})
	bus.Publish(progress.Event{Kind: progress.KindSimFailed, Sim: "a", Err: "watchdog: killed after 1s"})
	// The auto-dump fires on the watch goroutine; poll for the file.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog event never auto-dumped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.Schema != Schema || d.Command != "test" {
		t.Fatalf("dump header = %q/%q", d.Schema, d.Command)
	}
	if len(d.Reason) < len("auto: ") || d.Reason[:6] != "auto: " {
		t.Fatalf("reason = %q, want auto: prefix", d.Reason)
	}
	found := false
	for _, e := range d.Events {
		if e.Kind == "event" && e.Event != nil && e.Event.Kind == progress.KindSimFailed {
			found = true
		}
	}
	if !found {
		t.Error("dump does not contain the triggering failure event")
	}
}

func TestCounterDeltasAgainstBaseline(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pre_existing").Add(10)
	reg.Counter("untouched").Add(3)
	bus := progress.NewBus()
	defer bus.Close()
	r := New(Options{Command: "test", Bus: bus, Registry: reg})
	defer r.Close()
	reg.Counter("pre_existing").Add(5)
	reg.Counter("born_in_flight").Add(2)
	reg.Gauge("depth").Set(7)

	d := dump(t, r)
	deltas := map[string]uint64{}
	for _, c := range d.Counters {
		deltas[c.Name] = c.Delta
	}
	if deltas["pre_existing"] != 5 {
		t.Errorf("pre_existing delta = %d, want 5", deltas["pre_existing"])
	}
	if deltas["born_in_flight"] != 2 {
		t.Errorf("born_in_flight delta = %d, want 2", deltas["born_in_flight"])
	}
	if _, ok := deltas["untouched"]; ok {
		t.Error("zero-delta counter appears in the dump")
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 7 {
		t.Errorf("gauges = %+v, want depth=7", d.Gauges)
	}
	if d.Reason != "unit test" || d.DumpedAt.IsZero() {
		t.Errorf("dump header reason/time wrong: %q %v", d.Reason, d.DumpedAt)
	}
}

func TestWatchdogAutoDumpPredicate(t *testing.T) {
	for _, tc := range []struct {
		ev   progress.Event
		want bool
	}{
		{progress.Event{Kind: progress.KindSimFailed, Err: "watchdog: killed"}, true},
		{progress.Event{Kind: progress.KindSimRetried, Err: "watchdog timeout"}, true},
		{progress.Event{Kind: progress.KindSimFailed, Err: "bad input"}, false},
		{progress.Event{Kind: progress.KindSimFinished, Err: "watchdog"}, false},
	} {
		if got := WatchdogAutoDump(tc.ev); got != tc.want {
			t.Errorf("WatchdogAutoDump(%+v) = %v, want %v", tc.ev, got, tc.want)
		}
	}
}
