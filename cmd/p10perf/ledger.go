// Ledger types and logic for the perf-regression gate: parsing `go test
// -bench` output, numbering BENCH_<n>.json files, and comparing a fresh
// ledger against the newest committed one.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Ledger is one BENCH_<n>.json document: everything `make perf` measured in
// one run, with enough environment context to judge cross-machine noise.
// DESIGN.md documents the schema. Older ledgers also carry "sweep" and
// "surrogate" wall-clock sections; decoding ignores them.
type Ledger struct {
	Schema            int           `json:"schema"`
	Created           string        `json:"created"`
	Environment       Environment   `json:"environment"`
	Benchmarks        []BenchResult `json:"benchmarks"`
	TelemetryOverhead float64       `json:"telemetry_overhead"`
}

// Environment records where the numbers came from; regressions are only
// meaningful against a ledger from a comparable machine.
type Environment struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
	Commit    string `json:"commit,omitempty"`
}

// BenchResult is one `go test -bench` line.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkCoreTelemetryOff-8   3   123456 ns/op   72 B/op   4 allocs/op
//
// (the -N GOMAXPROCS suffix is absent on single-proc runs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// parseBenchOutput extracts the result lines from `go test -bench` output;
// -benchmem byte/alloc columns are picked up when present.
func parseBenchOutput(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bench line %q: %v", sc.Text(), err)
		}
		res := BenchResult{Name: m[1], NsPerOp: ns}
		rest := m[3]
		if bm := regexp.MustCompile(`(\d+) B/op`).FindStringSubmatch(rest); bm != nil {
			res.BytesPerOp, _ = strconv.ParseUint(bm[1], 10, 64)
		}
		if am := regexp.MustCompile(`(\d+) allocs/op`).FindStringSubmatch(rest); am != nil {
			res.AllocsPerOp, _ = strconv.ParseUint(am[1], 10, 64)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// bestOf collapses repeated -count samples into one result per benchmark:
// the minimum ns/op (least scheduler interference — the number closest to
// the code's actual cost) paired with the worst-case alloc stats, so a lucky
// sample cannot slip an allocation past the zero-alloc guard. First-seen
// order is preserved.
func bestOf(samples []BenchResult) []BenchResult {
	var out []BenchResult
	idx := map[string]int{}
	for _, s := range samples {
		i, ok := idx[s.Name]
		if !ok {
			idx[s.Name] = len(out)
			out = append(out, s)
			continue
		}
		if s.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = s.NsPerOp
		}
		if s.BytesPerOp > out[i].BytesPerOp {
			out[i].BytesPerOp = s.BytesPerOp
		}
		if s.AllocsPerOp > out[i].AllocsPerOp {
			out[i].AllocsPerOp = s.AllocsPerOp
		}
	}
	return out
}

var ledgerName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// ledgerIndices returns the sorted indices of BENCH_<n>.json files in dir.
func ledgerIndices(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var idx []int
	for _, e := range ents {
		if m := ledgerName.FindStringSubmatch(e.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			idx = append(idx, n)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// newestPrior loads the highest-numbered existing ledger (nil if none).
func newestPrior(dir string) (*Ledger, string, error) {
	idx, err := ledgerIndices(dir)
	if err != nil || len(idx) == 0 {
		return nil, "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", idx[len(idx)-1]))
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, "", fmt.Errorf("%s: %v", path, err)
	}
	return &l, path, nil
}

// nextIndex returns the index the new ledger should be written under.
func nextIndex(dir string) (int, error) {
	idx, err := ledgerIndices(dir)
	if err != nil {
		return 0, err
	}
	if len(idx) == 0 {
		return 0, nil
	}
	return idx[len(idx)-1] + 1, nil
}

// minRegressNs is the floor below which ns/op ratios are pure timer noise
// (the no-subscriber publish path measures fractions of a nanosecond); such
// rows are reported but never flagged.
const minRegressNs = 5.0

// compare renders the old-vs-new table and counts regressions: any tracked
// metric slower than old*(1+threshold). Improvements never fail the gate.
func compare(oldPath string, old, cur *Ledger, threshold float64) (string, int) {
	var b strings.Builder
	regressions := 0
	fmt.Fprintf(&b, "comparing against %s (threshold +%.0f%%)\n", oldPath, threshold*100)
	fmt.Fprintf(&b, "%-42s %14s %14s %7s\n", "metric", "old", "new", "ratio")
	row := func(name string, oldV, newV float64, noisy bool) {
		ratio := 0.0
		if oldV > 0 {
			ratio = newV / oldV
		}
		flag := ""
		if oldV > 0 && ratio > 1+threshold && !noisy {
			flag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(&b, "%-42s %14.2f %14.2f %7.2f%s\n", name, oldV, newV, ratio, flag)
	}
	oldBench := map[string]BenchResult{}
	for _, r := range old.Benchmarks {
		oldBench[r.Name] = r
	}
	for _, r := range cur.Benchmarks {
		o, ok := oldBench[r.Name]
		if !ok {
			fmt.Fprintf(&b, "%-42s %14s %14.2f\n", r.Name+" ns/op", "(new)", r.NsPerOp)
			continue
		}
		noisy := o.NsPerOp < minRegressNs && r.NsPerOp < minRegressNs
		row(r.Name+" ns/op", o.NsPerOp, r.NsPerOp, noisy)
	}
	if old.TelemetryOverhead > 0 && cur.TelemetryOverhead > 0 {
		row("telemetry overhead (on/off)", old.TelemetryOverhead, cur.TelemetryOverhead, false)
	}
	return b.String(), regressions
}
