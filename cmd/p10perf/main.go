// Command p10perf is the perf-regression ledger: it measures a fixed tier of
// `go test -bench` microbenchmarks, writes the results as the next
// perf/BENCH_<n>.json, and compares them against the newest prior ledger. Any tracked metric slower than the noise threshold
// fails the gate (exit 1) with a readable diff, so a perf regression shows
// up in review as a red `make perf` next to the ledger that caught it.
//
// Usage:
//
//	p10perf                     # measure, write perf/BENCH_<n>.json, compare
//	p10perf -threshold 0.5      # looser gate (single-CPU CI boxes are noisy)
//	p10perf -dry-run            # measure and compare, write nothing
//
// The benchmark tier is fixed on purpose: the zero-cost guards
// (CoreTelemetryOff vs CoreTelemetryOn, PublishNoSubscribers) are exactly
// the paths this repo promises stay free when observability is off.
// End-to-end wall-clock jobs (sweeps, surrogate training) are measured with
// paired statistics by the bench/ module, not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"power10sim/internal/cliutil"
)

// The benchmark tier is split by op cost, because one -benchtime cannot
// measure both ends honestly: the heavy tier (whole-core simulations,
// 50ms-14s per op) runs a fixed few iterations, while the fast tier
// (nanosecond-to-microsecond ops) needs real iteration counts — at 3
// iterations a 100ns op is timer noise, and noise was tripping the
// regression gate on code that had not changed.
const heavyBenchTier = "^(BenchmarkCoreP10|BenchmarkCoreP10Sampled|BenchmarkCoreTelemetryOff|BenchmarkCoreTelemetryOn|BenchmarkCoreInjectionOff)$"

// fastBenchTier runs at fastBenchTime iterations, -count fastBenchCount,
// and the ledger keeps each benchmark's minimum ns/op (best-of-N is the
// standard de-noising for scheduler-sensitive microbenchmarks on a loaded
// box) with its worst-case alloc stats. 1000 iterations is deliberate for
// the one-subscriber publish bench: it stays within the subscriber's buffer,
// so the number is the buffered fast path, not saturation drain.
const (
	fastBenchTier  = "^(BenchmarkPublishNoSubscribers|BenchmarkPublishOneSubscriber|BenchmarkSurrogatePredict)$"
	fastBenchTime  = "1000x"
	fastBenchCount = 3
)

// zeroAllocBenches must report 0 allocs/op: the steady-state core loop is
// allocation-free by construction (cycle maps, ring buffers, pooled cores),
// and any new per-cycle allocation is a regression regardless of how the
// timings move. Checked before the ns/op comparison so the failure names the
// allocation count, not a noisy ratio.
var zeroAllocBenches = map[string]bool{
	"BenchmarkCoreP10":          true,
	"BenchmarkSurrogatePredict": true,
}

// checkZeroAlloc returns the number of tracked benchmarks that allocated.
func checkZeroAlloc(benches []BenchResult) int {
	bad := 0
	for _, r := range benches {
		if zeroAllocBenches[r.Name] && r.AllocsPerOp > 0 {
			fmt.Printf("%s: %d allocs/op (%d B/op), want 0 — steady-state allocation regression\n",
				r.Name, r.AllocsPerOp, r.BytesPerOp)
			bad++
		}
	}
	return bad
}

func goBin() string {
	if g := os.Getenv("GO"); g != "" {
		return g
	}
	return "go"
}

func runGoBench(benchtime string) ([]BenchResult, error) {
	heavy, err := goBench(heavyBenchTier, benchtime, 1, ".")
	if err != nil {
		return nil, err
	}
	fast, err := goBench(fastBenchTier, fastBenchTime, fastBenchCount, ".", "./internal/progress")
	if err != nil {
		return nil, err
	}
	return append(heavy, bestOf(fast)...), nil
}

func goBench(tier, benchtime string, count int, pkgs ...string) ([]BenchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", tier,
		"-benchtime", benchtime, "-benchmem"}
	if count > 1 {
		args = append(args, "-count", fmt.Sprint(count))
	}
	args = append(args, pkgs...)
	fmt.Fprintf(os.Stderr, "p10perf: %s %s\n", goBin(), strings.Join(args, " "))
	cmd := exec.Command(goBin(), args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s", err, out.String())
	}
	return parseBenchOutput(&out)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		dir       = flag.String("dir", "perf", "ledger directory (BENCH_<n>.json files)")
		threshold = flag.Float64("threshold", 0.30, "relative slowdown that fails the gate")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime for the micro tier")
		dryRun    = flag.Bool("dry-run", false, "measure and compare but do not write a ledger")
	)
	flag.Parse()
	if *threshold <= 0 {
		cliutil.Usagef("-threshold %v: must be > 0", *threshold)
	}

	benches, err := runGoBench(*benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "p10perf: benchmark tier produced no results")
		os.Exit(1)
	}
	cur := &Ledger{
		Schema:  1,
		Created: time.Now().UTC().Format(time.RFC3339),
		Environment: Environment{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			Commit:    gitCommit(),
		},
		Benchmarks: benches,
	}
	var off, on float64
	for _, r := range cur.Benchmarks {
		switch r.Name {
		case "BenchmarkCoreTelemetryOff":
			off = r.NsPerOp
		case "BenchmarkCoreTelemetryOn":
			on = r.NsPerOp
		}
	}
	if off > 0 {
		cur.TelemetryOverhead = on / off
	}

	prior, priorPath, err := newestPrior(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: reading prior ledger: %v\n", err)
		os.Exit(1)
	}

	exit := 0
	if bad := checkZeroAlloc(cur.Benchmarks); bad > 0 {
		fmt.Printf("%d zero-alloc guard failure(s)\n", bad)
		exit = 1
	}
	if prior != nil {
		report, regressions := compare(priorPath, prior, cur, *threshold)
		fmt.Print(report)
		if regressions > 0 {
			fmt.Printf("%d regression(s) beyond +%.0f%%\n", regressions, *threshold*100)
			exit = 1
		}
	} else {
		fmt.Printf("no prior ledger in %s; establishing baseline\n", *dir)
	}

	if *dryRun {
		fmt.Fprintln(os.Stderr, "p10perf: dry run, ledger not written")
		os.Exit(exit)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: %v\n", err)
		os.Exit(1)
	}
	n, err := nextIndex(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n))
	buf, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "p10perf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(cur.Benchmarks))
	os.Exit(exit)
}
