// Command p10obscheck sanity-checks the observability artifacts a sweep
// produces: the metrics-registry JSON snapshot (-metrics), the Chrome
// trace_event file (-trace), the Prometheus text exposition served on
// /metrics (-prom, "-" for stdin), the campaign ledger written with
// -runlog (-runlog DIR), the flight-recorder dump (-flightrec), and the
// coordinator's merged fleet trace (-fleet-trace). It is the verification
// half of `make profile`, `make serve-check`, `make ledger-check` and
// `make trace-check`.
//
// Checks performed:
//
//   - metrics: valid JSON, series sorted by (name, labels), histogram bucket
//     counts summing to the series count, and — when -require-counter is
//     given — the named counter present with a non-zero value.
//   - trace: valid JSON with a traceEvents array, every span ("X") event
//     carrying a positive duration, and — when -require-span is given — at
//     least -min-spans spans whose name starts with the prefix.
//   - prom: well-formed exposition (TYPE lines, name/label syntax, escape
//     sequences), contiguous families, sorted duplicate-free series, and
//     cumulative histograms that agree with their _count.
//   - runlog: a pristine ledger (no corrupt/foreign/torn lines), at least
//     -min-records records, strictly increasing sequence numbers, 64-hex
//     content keys, known tiers, and the error/measurement exclusivity
//     invariant.
//   - flightrec: the p10flightrec-v1 schema, a non-empty command and reason,
//     strictly increasing entry sequence numbers, well-formed event/note
//     entries, and no zero counter deltas.
//   - fleet-trace: one enclosing unit span per lane; every unit that claims
//     a clean merge shows the full queued → leased → running → shipped chain
//     inside it (running inside a lease) plus exactly one merge instant, and
//     at least -min-units units merged.
//
// Exit status 0 when every check passes; 1 with a message on stderr when a
// check fails; 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"power10sim/internal/cliutil"
	"power10sim/internal/flightrec"
	"power10sim/internal/telemetry"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p10obscheck: "+format+"\n", args...)
	os.Exit(1)
}

// labelsKey rebuilds the canonical sorted label string from a snapshot's
// map form; series must come out of the registry ordered by name then this.
func labelsKey(labels map[string]string) string {
	out := make([]string, 0, len(labels))
	for k, v := range labels {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func checkMetrics(path, requireCounter string) {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("metrics: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		fail("metrics: invalid JSON: %v", err)
	}
	checkSorted := func(kind string, keys []string) {
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[i-1] {
				fail("metrics: %s series not sorted: %q after %q", kind, keys[i], keys[i-1])
			}
		}
	}
	var ck []string
	for _, c := range snap.Counters {
		ck = append(ck, c.Name+"\x00"+labelsKey(c.Labels))
	}
	checkSorted("counter", ck)
	var gk []string
	for _, g := range snap.Gauges {
		gk = append(gk, g.Name+"\x00"+labelsKey(g.Labels))
	}
	checkSorted("gauge", gk)
	var hk []string
	for _, h := range snap.Histograms {
		hk = append(hk, h.Name+"\x00"+labelsKey(h.Labels))
		var sum uint64
		for _, bk := range h.Buckets {
			sum += bk.Count
		}
		if sum != h.Count {
			fail("metrics: histogram %s buckets sum to %d, count says %d", h.Name, sum, h.Count)
		}
	}
	checkSorted("histogram", hk)
	if requireCounter != "" {
		found := false
		for _, c := range snap.Counters {
			if c.Name == requireCounter {
				found = true
				if c.Value == 0 {
					fail("metrics: required counter %s is zero", requireCounter)
				}
			}
		}
		if !found {
			fail("metrics: required counter %s missing", requireCounter)
		}
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: metrics ok (%d counters, %d gauges, %d histograms)\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
}

func checkTrace(path, requireSpan string, minSpans int) {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("trace: %v", err)
	}
	var tf struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		fail("trace: invalid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		fail("trace: no events")
	}
	spans, matching := 0, 0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 1 {
				fail("trace: span %q has non-positive duration %d", e.Name, e.Dur)
			}
			if requireSpan != "" && strings.HasPrefix(e.Name, requireSpan) {
				matching++
			}
		case "C", "M", "i":
		default:
			fail("trace: unexpected event phase %q (event %q)", e.Ph, e.Name)
		}
	}
	if requireSpan != "" && matching < minSpans {
		fail("trace: %d spans with prefix %q, want >= %d", matching, requireSpan, minSpans)
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: trace ok (%d events, %d spans)\n", len(tf.TraceEvents), spans)
}

func checkFlightrec(path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("flightrec: %v", err)
	}
	var d flightrec.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		fail("flightrec: invalid JSON: %v", err)
	}
	if d.Schema != flightrec.Schema {
		fail("flightrec: schema %q, want %q", d.Schema, flightrec.Schema)
	}
	if d.Command == "" {
		fail("flightrec: empty command")
	}
	if d.Reason == "" {
		fail("flightrec: empty reason")
	}
	if d.DumpedAt.IsZero() {
		fail("flightrec: zero dumped_at")
	}
	var lastSeq uint64
	for i, e := range d.Events {
		if e.Seq <= lastSeq {
			fail("flightrec: entry %d seq %d not strictly increasing (prev %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "event":
			if e.Event == nil {
				fail("flightrec: entry %d kind \"event\" with no event payload", i)
			}
		case "note":
			if e.Note == "" {
				fail("flightrec: entry %d kind \"note\" with empty note", i)
			}
		default:
			fail("flightrec: entry %d has unknown kind %q", i, e.Kind)
		}
		if e.Time.IsZero() {
			fail("flightrec: entry %d has zero time", i)
		}
	}
	for _, c := range d.Counters {
		// The dump contract omits zero deltas: only counters that moved during
		// the flight appear.
		if c.Delta == 0 {
			fail("flightrec: counter %s has zero delta (should be omitted)", c.Name)
		}
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: flightrec ok (%q by %s: %d entries, %d dropped, %d counters)\n",
		d.Reason, d.Command, len(d.Events), d.Dropped, len(d.Counters))
}

// checkFleetTrace validates the structure of a coordinator's merged fleet
// trace: each lane (tid) is one work unit, and every unit that claims a clean
// merge must show the full lifecycle chain — queued, leased, running (inside
// a lease), shipped — inside its enclosing unit span, plus the merge instant.
func checkFleetTrace(path string, minUnits int) {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("fleet-trace: %v", err)
	}
	var tf struct {
		TraceEvents []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		fail("fleet-trace: invalid JSON: %v", err)
	}
	byTid := map[int][]telemetry.Event{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		byTid[e.Tid] = append(byTid[e.Tid], e)
	}
	units, merged := 0, 0
	for tid, evs := range byTid {
		var parent *telemetry.Event
		parentIdx := -1
		for i := range evs {
			if evs[i].Ph == "X" && strings.HasPrefix(evs[i].Name, "unit:") {
				if parent != nil {
					fail("fleet-trace: tid %d has two unit spans", tid)
				}
				parent = &evs[i]
				parentIdx = i
			}
		}
		if parent == nil {
			fail("fleet-trace: tid %d has no enclosing unit span", tid)
		}
		units++
		pStart, pEnd := parent.Ts, parent.Ts+parent.Dur
		inside := func(e telemetry.Event) bool {
			return e.Ts >= pStart && e.Ts+e.Dur <= pEnd
		}
		isMerged, _ := parent.Args["merged"].(bool)
		var queued, leases, running, shipped []telemetry.Event
		instants := 0
		for i, e := range evs {
			if e.Ph != "X" && e.Ph != "i" {
				fail("fleet-trace: tid %d has unexpected phase %q", tid, e.Ph)
			}
			if e.Ph == "X" && e.Dur < 1 {
				fail("fleet-trace: tid %d span %q has non-positive duration", tid, e.Name)
			}
			switch {
			case e.Ph == "i" && e.Name == "merged":
				instants++
			case e.Name == "queued":
				queued = append(queued, e)
			case strings.HasPrefix(e.Name, "leased:"):
				leases = append(leases, e)
			case e.Name == "running":
				running = append(running, e)
			case e.Name == "shipped":
				shipped = append(shipped, e)
			}
			if e.Ph == "X" && i != parentIdx && !inside(e) {
				fail("fleet-trace: tid %d span %q [%d,%d) escapes unit span [%d,%d)",
					tid, e.Name, e.Ts, e.Ts+e.Dur, pStart, pEnd)
			}
		}
		for _, r := range running {
			enclosed := false
			for _, l := range leases {
				if r.Ts >= l.Ts && r.Ts+r.Dur <= l.Ts+l.Dur {
					enclosed = true
					break
				}
			}
			if !enclosed {
				fail("fleet-trace: tid %d running span escapes every lease span", tid)
			}
		}
		if !isMerged {
			continue
		}
		merged++
		if len(queued) == 0 || len(leases) == 0 || len(running) == 0 || len(shipped) == 0 {
			fail("fleet-trace: tid %d merged unit missing lifecycle spans (queued %d, leased %d, running %d, shipped %d)",
				tid, len(queued), len(leases), len(running), len(shipped))
		}
		if instants != 1 {
			fail("fleet-trace: tid %d merged unit has %d merge instants, want 1", tid, instants)
		}
		if w, _ := parent.Args["worker"].(string); w == "" {
			fail("fleet-trace: tid %d merged unit missing merging worker", tid)
		}
		if id, _ := parent.Args["trace_id"].(string); len(id) != 16 {
			fail("fleet-trace: tid %d unit trace_id %q not 16 hex chars", tid, id)
		}
	}
	if merged < minUnits {
		fail("fleet-trace: %d merged unit(s), want >= %d", merged, minUnits)
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: fleet-trace ok (%d units, %d merged)\n", units, merged)
}

func checkProm(path string) {
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fail("prom: %v", err)
		}
		defer f.Close()
		r = f
	}
	st, err := validateProm(r)
	if err != nil {
		fail("prom: %v", err)
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: prom ok (%d families, %d samples)\n", st.Families, st.Samples)
}

func main() {
	var (
		metricsPath    = flag.String("metrics", "", "metrics snapshot JSON to check")
		tracePath      = flag.String("trace", "", "Chrome trace JSON to check")
		promPath       = flag.String("prom", "", "Prometheus text exposition to check (\"-\" = stdin)")
		requireCounter = flag.String("require-counter", "", "counter that must exist with a non-zero value")
		requireSpan    = flag.String("require-span", "", "span-name prefix that must appear")
		minSpans       = flag.Int("min-spans", 1, "minimum spans matching -require-span")
		runlogDir      = flag.String("runlog", "", "campaign ledger directory to check")
		minRecords     = flag.Int("min-records", 1, "minimum ledger records with -runlog")
		flightPath     = flag.String("flightrec", "", "flight-recorder dump JSON to check")
		fleetTrace     = flag.String("fleet-trace", "", "merged fleet Chrome trace (p10coord -trace) to check")
		minUnits       = flag.Int("min-units", 1, "minimum merged work units with -fleet-trace")
	)
	flag.Parse()
	if *metricsPath == "" && *tracePath == "" && *promPath == "" && *runlogDir == "" &&
		*flightPath == "" && *fleetTrace == "" {
		cliutil.Usagef("nothing to check: pass -metrics, -trace, -prom, -runlog, -flightrec and/or -fleet-trace")
	}
	if *minSpans < 0 {
		cliutil.Usagef("-min-spans %d: must be >= 0", *minSpans)
	}
	if *minRecords < 0 {
		cliutil.Usagef("-min-records %d: must be >= 0", *minRecords)
	}
	if *minRecords != 1 && *runlogDir == "" {
		cliutil.Usagef("-min-records needs -runlog")
	}
	if *requireSpan != "" && *tracePath == "" {
		cliutil.Usagef("-require-span needs -trace")
	}
	if *requireCounter != "" && *metricsPath == "" {
		cliutil.Usagef("-require-counter needs -metrics")
	}
	if *minUnits < 0 {
		cliutil.Usagef("-min-units %d: must be >= 0", *minUnits)
	}
	if *minUnits != 1 && *fleetTrace == "" {
		cliutil.Usagef("-min-units needs -fleet-trace")
	}
	if *metricsPath != "" {
		checkMetrics(*metricsPath, *requireCounter)
	}
	if *tracePath != "" {
		checkTrace(*tracePath, *requireSpan, *minSpans)
	}
	if *promPath != "" {
		checkProm(*promPath)
	}
	if *runlogDir != "" {
		checkRunlog(*runlogDir, *minRecords)
	}
	if *flightPath != "" {
		checkFlightrec(*flightPath)
	}
	if *fleetTrace != "" {
		checkFleetTrace(*fleetTrace, *minUnits)
	}
}
