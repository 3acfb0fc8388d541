// Package flightrec is the harness's crash-safe flight recorder: the tail of
// the progress bus's replay ring (events and operator notes, in one seq
// order), paired with a baseline telemetry snapshot, that can be dumped
// atomically to JSON at the moment something goes wrong — a panic, a SIGQUIT,
// a watchdog kill, a lost lease, a chaos exit. The dump answers the
// post-mortem question the live endpoints cannot: "what was this process
// doing in the seconds before it died?", from a process that is already
// dying.
//
// The recorder follows the repository's observability conventions:
//
//   - Nil is off. Every method on a nil *Recorder does nothing, so CLIs arm
//     it unconditionally behind a flag.
//   - One event history. The recorder keeps no ring of its own: it subscribes
//     to the bus, which makes the bus stamp and retain every event, and a
//     dump reads the newest DefaultCapacity of them. Notes are bus events
//     too, so a dump taken right after an event always contains it.
//   - Crash-safe output. Dumps go through the telemetry package's atomic
//     write (temp file + rename), so a dump interrupted by the very crash it
//     is recording leaves either the previous complete dump or nothing —
//     never a truncated file. p10obscheck -flightrec validates the schema.
//   - Counters dump as deltas. The dump reports each counter's change since
//     the recorder was armed, not its absolute value, so "what happened this
//     flight" is readable without a baseline scrape to diff against.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"power10sim/internal/progress"
	"power10sim/internal/telemetry"
)

// Schema identifies the dump format; p10obscheck -flightrec verifies it.
const Schema = "p10flightrec-v1"

// DefaultCapacity is how many of the newest bus events a dump carries: enough
// for the tail of any realistic sweep's event stream while keeping the dump
// small.
const DefaultCapacity = 256

// Options configures a Recorder.
type Options struct {
	// Command names the process in the dump ("p10bench", "p10worker", ...).
	Command string
	// Bus is the event history the recorder dumps from and publishes notes
	// on. Required.
	Bus *progress.Bus
	// Registry, when non-nil, is snapshotted at arm time (the delta baseline)
	// and again at each dump.
	Registry *telemetry.Registry
	// DumpPath is the default destination for Dump/DumpOnPanic; empty makes
	// those methods no-ops (WriteJSON and DumpFile still work).
	DumpPath string
}

// WatchdogAutoDump is the auto-dump predicate every recorder applies to the
// bus stream: fire on simulation failures and retries whose error mentions
// the watchdog — the hang-recovery path, where the pre-kill event tail is
// exactly what a post-mortem needs.
func WatchdogAutoDump(ev progress.Event) bool {
	if ev.Kind != progress.KindSimFailed && ev.Kind != progress.KindSimRetried {
		return false
	}
	return strings.Contains(ev.Err, "watchdog")
}

// Entry is one dumped bus event.
type Entry struct {
	// Seq is the bus sequence number, strictly increasing across both kinds,
	// so a validator can prove the dump is ordered and gap-free after the
	// Dropped older events.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is "event" (Event is set) or "note" (Note is set).
	Kind  string          `json:"kind"`
	Event *progress.Event `json:"event,omitempty"`
	Note  string          `json:"note,omitempty"`
}

// CounterDelta is one counter's change since the recorder was armed.
type CounterDelta struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Delta  uint64            `json:"delta"`
}

// Dump is the serialized flight record.
type Dump struct {
	Schema  string `json:"schema"`
	Command string `json:"command"`
	// Reason says why the dump was taken ("panic: ...", "SIGQUIT",
	// "lease lost", "chaos kill", ...).
	Reason   string    `json:"reason"`
	DumpedAt time.Time `json:"dumped_at"`
	// Dropped counts the older bus events not in the dump (the first dumped
	// seq minus one).
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Entry `json:"events"`
	// Counters are deltas since arm time; Gauges are current values (a gauge
	// delta is meaningless). Both follow snapshot sort order.
	Counters []CounterDelta            `json:"counters,omitempty"`
	Gauges   []telemetry.GaugeSnapshot `json:"gauges,omitempty"`
}

// Recorder is the flight recorder. Construct with New; a nil *Recorder is a
// valid no-op.
type Recorder struct {
	opts     Options
	baseline telemetry.Snapshot
	sub      *progress.Subscription
	done     chan struct{}
}

// New arms a recorder: takes the counter baseline and subscribes to the bus,
// so the bus stamps and retains every event and a watchdog kill dumps to
// DumpPath as it happens. Close it to detach.
func New(opts Options) *Recorder {
	if opts.Bus == nil {
		panic("flightrec: Options.Bus is required")
	}
	r := &Recorder{
		opts:     opts,
		baseline: opts.Registry.Snapshot(),
		// The buffer only feeds the watchdog check, so an overflowing burst
		// costs at most an auto-dump, never dump content; a dump's worth of
		// events is plenty of slack.
		sub:  opts.Bus.Subscribe(DefaultCapacity),
		done: make(chan struct{}),
	}
	go r.watch()
	return r
}

// watch drains the subscription until it closes, auto-dumping on watchdog
// events.
func (r *Recorder) watch() {
	defer close(r.done)
	for ev := range r.sub.C() {
		if WatchdogAutoDump(ev) {
			_ = r.Dump(fmt.Sprintf("auto: %s", ev.String()))
		}
	}
}

// Note publishes an operator annotation ("draining on SIGTERM", "lease lost:
// <keys>") on the bus as a note event. Safe on nil.
func (r *Recorder) Note(format string, args ...any) {
	if r == nil {
		return
	}
	r.opts.Bus.Publish(progress.Event{Kind: progress.KindNote, Note: fmt.Sprintf(format, args...)})
}

// entries returns the newest DefaultCapacity bus events as dump entries, plus
// the number of older events left out.
func (r *Recorder) entries() ([]Entry, uint64) {
	evs := r.opts.Bus.ReplaySince(0)
	if len(evs) > DefaultCapacity {
		evs = evs[len(evs)-DefaultCapacity:]
	}
	out := make([]Entry, len(evs))
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == progress.KindNote {
			out[i] = Entry{Seq: ev.Seq, Time: ev.Time, Kind: "note", Note: ev.Note}
		} else {
			out[i] = Entry{Seq: ev.Seq, Time: ev.Time, Kind: "event", Event: ev}
		}
	}
	if len(evs) == 0 {
		return out, 0
	}
	return out, evs[0].Seq - 1
}

// WriteJSON serializes the flight record. Safe on nil (writes nothing,
// returns nil: there is no record to lose).
func (r *Recorder) WriteJSON(w io.Writer, reason string) error {
	if r == nil {
		return nil
	}
	events, dropped := r.entries()
	d := Dump{
		Schema:   Schema,
		Command:  r.opts.Command,
		Reason:   reason,
		DumpedAt: time.Now(),
		Dropped:  dropped,
		Events:   events,
	}
	if r.opts.Registry != nil {
		cur := r.opts.Registry.Snapshot()
		base := make(map[string]uint64, len(r.baseline.Counters))
		for _, c := range r.baseline.Counters {
			base[counterKey(c)] = c.Value
		}
		for _, c := range cur.Counters {
			delta := c.Value - base[counterKey(c)]
			if delta == 0 {
				continue
			}
			d.Counters = append(d.Counters, CounterDelta{Name: c.Name, Labels: c.Labels, Delta: delta})
		}
		d.Gauges = cur.Gauges
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func counterKey(c telemetry.CounterSnapshot) string {
	// Snapshot order is already canonical; a cheap composite key suffices
	// because label maps marshal with sorted keys.
	b, _ := json.Marshal(c.Labels)
	return c.Name + "\x00" + string(b)
}

// DumpFile writes the flight record to path atomically. Safe on nil.
func (r *Recorder) DumpFile(path, reason string) error {
	if r == nil {
		return nil
	}
	return telemetry.WriteFileAtomic(path, func(w io.Writer) error {
		return r.WriteJSON(w, reason)
	})
}

// Dump writes to the configured DumpPath; a recorder without one (or nil)
// silently succeeds. This is the method crash paths call — they have nowhere
// to report an error anyway, but it is returned for the paths that do.
func (r *Recorder) Dump(reason string) error {
	if r == nil || r.opts.DumpPath == "" {
		return nil
	}
	return r.DumpFile(r.opts.DumpPath, reason)
}

// DumpOnPanic is a deferred hook: if the goroutine is panicking, it dumps
// with the panic value as the reason and re-panics, preserving the crash
// (and its stack trace) while saving the flight record first. Safe on nil —
// the panic still propagates. Usage: defer rec.DumpOnPanic().
func (r *Recorder) DumpOnPanic() {
	p := recover()
	if p == nil {
		return
	}
	r.Note("panic: %v", p)
	_ = r.Dump(fmt.Sprintf("panic: %v", p))
	panic(p)
}

// ArmSIGQUIT installs a SIGQUIT handler that dumps the flight record (reason
// "SIGQUIT") and then exits through exit (default os.Exit) with code 2 —
// trading the runtime's goroutine dump for the flight record, which is the
// deliberate "post-mortem a live process" gesture. Safe on nil: no handler
// is installed and the runtime's default SIGQUIT behavior stays in place.
func (r *Recorder) ArmSIGQUIT(exit func(int)) {
	if r == nil {
		return
	}
	if exit == nil {
		exit = os.Exit
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		<-ch
		r.Note("SIGQUIT received")
		_ = r.Dump("SIGQUIT")
		exit(2)
	}()
}

// Close detaches the bus subscription and stops the watch goroutine. It does
// not dump — pair it with an explicit Dump/DumpFile where a final record is
// wanted. Safe on nil and idempotent via the subscription's own guard.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.sub.Close()
	<-r.done
}
