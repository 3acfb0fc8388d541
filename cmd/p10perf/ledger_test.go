package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: power10sim
BenchmarkCoreTelemetryOff 	       3	  41992345 ns/op	         90400 cycles	 1048576 B/op	      42 allocs/op
BenchmarkCoreTelemetryOn-8 	       3	  42611002 ns/op	         90400 cycles	 1052672 B/op	      55 allocs/op
PASS
pkg: power10sim/internal/progress
BenchmarkPublishNoSubscribers 	1000000000	         0.5012 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	power10sim	0.4s
`

func TestParseBenchOutput(t *testing.T) {
	res, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(res), res)
	}
	if res[0].Name != "BenchmarkCoreTelemetryOff" || res[0].NsPerOp != 41992345 {
		t.Errorf("result 0 = %+v", res[0])
	}
	// The -8 GOMAXPROCS suffix must be stripped so ledgers from different
	// machines compare by benchmark identity.
	if res[1].Name != "BenchmarkCoreTelemetryOn" {
		t.Errorf("result 1 name = %q, want suffix stripped", res[1].Name)
	}
	if res[1].AllocsPerOp != 55 || res[1].BytesPerOp != 1052672 {
		t.Errorf("result 1 memstats = %+v", res[1])
	}
	if res[2].NsPerOp != 0.5012 {
		t.Errorf("result 2 ns/op = %v, want 0.5012", res[2].NsPerOp)
	}
}

func ledgerFixture(ns float64) *Ledger {
	return &Ledger{
		Schema: 1,
		Benchmarks: []BenchResult{
			{Name: "BenchmarkCoreTelemetryOff", NsPerOp: ns},
			{Name: "BenchmarkPublishNoSubscribers", NsPerOp: 0.5},
		},
		TelemetryOverhead: 1.02,
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := ledgerFixture(1000)
	cur := ledgerFixture(1400)
	report, n := compare("BENCH_0.json", old, cur, 0.30)
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report lacks REGRESSION flag:\n%s", report)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	old := ledgerFixture(1000)
	cur := ledgerFixture(1250)
	report, n := compare("BENCH_0.json", old, cur, 0.30)
	if n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, report)
	}
}

func TestCompareIgnoresSubNanosecondNoise(t *testing.T) {
	old := ledgerFixture(1000)
	cur := ledgerFixture(1000)
	// The no-subscriber publish benchmark doubling from 0.5ns to 1.0ns is
	// timer noise, not a regression.
	cur.Benchmarks[1].NsPerOp = 1.0
	report, n := compare("BENCH_0.json", old, cur, 0.30)
	if n != 0 {
		t.Fatalf("regressions = %d, want 0 (sub-ns noise)\n%s", n, report)
	}
}

func TestBestOf(t *testing.T) {
	samples := []BenchResult{
		{Name: "BenchmarkA", NsPerOp: 300, AllocsPerOp: 0},
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: 2, BytesPerOp: 64},
		{Name: "BenchmarkA", NsPerOp: 500, AllocsPerOp: 0},
	}
	got := bestOf(samples)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("bestOf order/len = %+v", got)
	}
	// Minimum timing, worst-case allocation stats.
	if got[0].NsPerOp != 150 || got[0].AllocsPerOp != 2 || got[0].BytesPerOp != 64 {
		t.Errorf("bestOf merged A = %+v, want min ns 150, max allocs 2, max bytes 64", got[0])
	}
}

func TestZeroAllocGuard(t *testing.T) {
	clean := []BenchResult{
		{Name: "BenchmarkCoreP10", NsPerOp: 6.4e7, AllocsPerOp: 0},
		{Name: "BenchmarkCoreTelemetryOn", NsPerOp: 6.5e7, AllocsPerOp: 55},
	}
	if n := checkZeroAlloc(clean); n != 0 {
		t.Fatalf("checkZeroAlloc(clean) = %d, want 0 (untracked benches may allocate)", n)
	}
	dirty := []BenchResult{
		{Name: "BenchmarkCoreP10", NsPerOp: 6.4e7, AllocsPerOp: 3, BytesPerOp: 96},
	}
	if n := checkZeroAlloc(dirty); n != 1 {
		t.Fatalf("checkZeroAlloc(dirty) = %d, want 1", n)
	}
}

func TestLedgerNumbering(t *testing.T) {
	dir := t.TempDir()
	if n, err := nextIndex(dir); err != nil || n != 0 {
		t.Fatalf("nextIndex(empty) = %d, %v; want 0", n, err)
	}
	if l, _, err := newestPrior(dir); err != nil || l != nil {
		t.Fatalf("newestPrior(empty) = %v, %v; want nil", l, err)
	}
	write := func(n int, ns float64) {
		b, _ := json.Marshal(ledgerFixture(ns))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 100)
	write(3, 250)
	// A non-ledger file must not confuse the numbering.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	n, err := nextIndex(dir)
	if err != nil || n != 4 {
		t.Fatalf("nextIndex = %d, %v; want 4", n, err)
	}
	l, path, err := newestPrior(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_3.json") {
		t.Errorf("newestPrior path = %q, want BENCH_3.json", path)
	}
	if l.Benchmarks[0].NsPerOp != 250 {
		t.Errorf("newestPrior loaded ns/op %v, want 250", l.Benchmarks[0].NsPerOp)
	}
	// nextIndex(missing dir) is index 0, not an error: first run creates it.
	if n, err := nextIndex(filepath.Join(dir, "missing")); err != nil || n != 0 {
		t.Fatalf("nextIndex(missing) = %d, %v; want 0", n, err)
	}
}

// TestCommittedLedgerLoads: the committed BENCH_3.json still carries the
// retired "sweep" and "surrogate" sections; newestPrior must load it anyway
// (unknown fields are ignored) so the gate keeps comparing against it.
func TestCommittedLedgerLoads(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "perf", "BENCH_3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"sweep"`) || !strings.Contains(string(b), `"surrogate"`) {
		t.Fatal("BENCH_3.json no longer carries the retired sections this test covers")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_3.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := newestPrior(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Schema != 1 || len(l.Benchmarks) == 0 || l.TelemetryOverhead <= 0 {
		t.Fatalf("BENCH_3.json loaded as %+v", l)
	}
	report, n := compare("BENCH_3.json", l, l, 0.30)
	if n != 0 || strings.Contains(report, "sweep") || strings.Contains(report, "surrogate") {
		t.Fatalf("self-compare: regressions = %d, report:\n%s", n, report)
	}
}
