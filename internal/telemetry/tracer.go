package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one Chrome trace_event record. Field order is fixed by the struct
// so marshaled output is stable. Args values must be JSON-marshalable;
// counter tracks use map[string]float64 (encoding/json sorts map keys).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace-file process ids: wall-clock spans/counters live in PidWall,
// simulation-cycle counter tracks in PidSimCycles (1 cycle rendered as 1µs),
// so the two time domains don't overlap in the viewer.
const (
	PidWall      = 0
	PidSimCycles = 1
)

// Tracer accumulates trace events in memory and writes them as a Chrome
// trace_event JSON object. A nil *Tracer is a valid no-op sink: Begin
// returns an inert Span and every other method returns immediately.
type Tracer struct {
	now func() int64 // microseconds since trace start

	mu     sync.Mutex
	events []Event
	lanes  []bool // tid occupancy for concurrent spans
}

// NewTracer creates a tracer timestamping events with wall-clock
// microseconds since creation.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{now: func() int64 { return time.Since(start).Microseconds() }}
}

// NewTracerWithClock creates a tracer with a caller-supplied microsecond
// clock — the hook the deterministic golden-file tests use.
func NewTracerWithClock(now func() int64) *Tracer {
	return &Tracer{now: now}
}

// Span is one in-flight duration slice; close it with End. The zero Span
// (from a nil tracer) is inert.
type Span struct {
	t    *Tracer
	name string
	cat  string
	ts   int64
	tid  int
}

// Begin opens a span. Concurrent spans are assigned distinct tid lanes so
// overlapping work renders as parallel tracks rather than false nesting.
// Safe on nil (returns an inert Span).
func (t *Tracer) Begin(name, cat string) Span {
	if t == nil {
		return Span{}
	}
	ts := t.now()
	t.mu.Lock()
	tid := -1
	for i, busy := range t.lanes {
		if !busy {
			tid = i
			break
		}
	}
	if tid < 0 {
		tid = len(t.lanes)
		t.lanes = append(t.lanes, false)
	}
	t.lanes[tid] = true
	t.mu.Unlock()
	return Span{t: t, name: name, cat: cat, ts: ts, tid: tid}
}

// End closes the span, emitting a complete ("X") event. Safe on the zero
// Span and idempotent only in the no-op case; call once per Begin.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	dur := end - s.ts
	if dur < 1 {
		dur = 1 // chrome://tracing drops zero-width slices
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, Event{
		Name: s.name, Cat: s.cat, Ph: "X", Ts: s.ts, Dur: dur,
		Pid: PidWall, Tid: s.tid,
	})
	s.t.lanes[s.tid] = false
	s.t.mu.Unlock()
}

// Counter emits a counter-track sample in the wall-clock domain. Safe on nil.
func (t *Tracer) Counter(name string, values map[string]float64) {
	if t == nil {
		return
	}
	t.counterAt(PidWall, t.now(), name, values)
}

// CounterAt emits a counter-track sample in the simulation-cycle domain at
// timestamp ts (one cycle = one trace microsecond). Safe on nil.
func (t *Tracer) CounterAt(ts int64, name string, values map[string]float64) {
	if t == nil {
		return
	}
	t.counterAt(PidSimCycles, ts, name, values)
}

func (t *Tracer) counterAt(pid int, ts int64, name string, values map[string]float64) {
	args := make(map[string]any, len(values))
	for k, v := range values {
		args[k] = v
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Name: name, Ph: "C", Ts: ts, Pid: pid, Tid: 0, Args: args})
	t.mu.Unlock()
}

// Instant emits an instant ("i") event in the wall-clock domain. Safe on nil.
func (t *Tracer) Instant(name, cat string) {
	if t == nil {
		return
	}
	ts := t.now()
	t.mu.Lock()
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: "i", Ts: ts, Pid: PidWall, Tid: 0})
	t.mu.Unlock()
}

// Len returns the number of buffered events. Safe on nil.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the top-level Chrome trace JSON object.
type traceFile struct {
	DisplayTimeUnit string  `json:"displayTimeUnit"`
	TraceEvents     []Event `json:"traceEvents"`
}

// WriteJSON writes the buffered events as a Chrome trace_event file through
// WriteChromeTrace, with one process name per time domain, so output is
// deterministic for a deterministic clock. Safe on nil: writes an empty
// trace. The tracer remains usable afterwards.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var evs []Event
	if t != nil {
		t.mu.Lock()
		// events only grows by append, so this prefix stays intact after
		// the lock is released.
		evs = t.events[:len(t.events):len(t.events)]
		t.mu.Unlock()
	}
	return WriteChromeTrace(w, map[int]string{
		PidWall:      "harness (wall clock)",
		PidSimCycles: "core simulation (cycles as µs)",
	}, evs)
}

// WriteChromeTrace writes a caller-assembled event set as a Chrome
// trace_event file: process-name metadata for each pid in procNames
// (emitted in pid order), then the events sorted stably by timestamp.
// Tracer.WriteJSON writes through it, as do producers — the fabric
// coordinator's merged fleet trace — that build their event set from
// cross-process lifecycle records rather than live spans.
func WriteChromeTrace(w io.Writer, procNames map[int]string, evs []Event) error {
	pids := make([]int, 0, len(procNames))
	for pid := range procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	out := make([]Event, 0, len(pids)+len(evs))
	for _, pid := range pids {
		out = append(out, Event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": procNames[pid]}})
	}
	body := append([]Event(nil), evs...)
	sort.SliceStable(body, func(i, j int) bool {
		// Metadata records (thread names) sort ahead of same-timestamp spans
		// so viewers resolve lane names before drawing into them.
		if body[i].Ts != body[j].Ts {
			return body[i].Ts < body[j].Ts
		}
		return body[i].Ph == "M" && body[j].Ph != "M"
	})
	out = append(out, body...)
	b, err := json.MarshalIndent(traceFile{DisplayTimeUnit: "ms", TraceEvents: out}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
