// Command bench is the repository's end-to-end benchmark. One invocation
// runs one workload — a whole job a user of the simulator runs — as a closed
// loop for a fixed time, checks everything the job produced against
// committed goldens, and prints one JSON result line as the last line of
// stdout. README.md describes the workloads, the metrics and the layers.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload long-full --trace 1     # per-layer metrics and a span file
//	bash bench/run.sh -compare A.jsonl B.jsonl           # medians, quartiles and verdicts
//	bash bench/run.sh -update-golden                     # recompute testdata/golden.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// maxSetupReps and setupBudget bound how often set-up is repeated to
	// take a median set-up time: a cold sweep's sub-millisecond set-up
	// repeats hundreds of times, a whole cold sweep runs once.
	maxSetupReps = 500
	setupBudget  = time.Second
)

type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	workdir      string
	compare      bool
	updateGolden bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured closed loop in seconds (at least one pass runs)")
	fs.IntVar(&o.trace, "trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files and span files")
	fs.BoolVar(&o.compare, "compare", false, "compare two files of benchmark output: -compare A B")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "recompute the goldens and write them to "+goldenPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	case o.updateGolden:
		if err := updateGolden(o, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if _, ok := workloadByName(o.workload); !ok {
		fmt.Fprintf(stderr, "bench: -workload %q: want one of %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	info, res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range info.Failures {
		fmt.Fprintf(stderr, "bench: failed: %s\n", f)
	}
	out := bufio.NewWriter(stdout)
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		out.Write(append(line, '\n'))
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line printed before the result: what ran, and a digest of
// everything the job produced, so two commits can be compared on any seed.
type runInfo struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Traced       bool   `json:"traced"`
	Passes       int    `json:"passes"`
	SetupReps    int    `json:"setup_reps"`
	OutputDigest string `json:"output_digest"`
	// AllocMB and PeakRSSMB are the median pass's heap allocation and peak
	// resident set. They are reported but not gated: on some workloads each
	// moves with garbage-collection timing by more than any bound the
	// benchmark may set (README.md).
	AllocMB   float64  `json:"alloc_mb,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb,omitempty"`
	SpanFile  string   `json:"span_file,omitempty"`
	Failures  []string `json:"failures,omitempty"`
}

// runWorkload sets a workload up, runs its measured closed loop, and
// assembles the two output lines.
func runWorkload(o options, stderr io.Writer) (runInfo, result, error) {
	def, _ := workloadByName(o.workload)
	g, err := loadGolden()
	if err != nil {
		return runInfo{}, result{}, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return runInfo{}, result{}, err
	}
	scratch, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return runInfo{}, result{}, err
	}
	defer os.RemoveAll(scratch)
	e := &env{ctx: context.Background(), seed: o.seed, dir: scratch, golden: g}

	var j job
	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetupReps && (len(setups) == 0 || spent < setupBudget) {
		start := time.Now()
		if j, err = def.setup(e); err != nil {
			return runInfo{}, result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}

	// pass runs one pass from a collected heap with the peak-RSS counter
	// restarted, so each pass starts as a fresh process would, and also
	// returns the heap bytes the pass allocated and its peak RSS, in MB.
	pass := func() (p passResult, allocMB, rssMB float64, err error) {
		if err := resetPeakRSS(); err != nil {
			return p, 0, 0, err
		}
		before := heapAllocMB()
		if p, err = j(e); err != nil {
			return p, 0, 0, err
		}
		allocMB = heapAllocMB() - before
		rssMB, err = peakRSSMB()
		return p, allocMB, rssMB, err
	}
	info := runInfo{Workload: o.workload, Seed: o.seed, Traced: o.trace == 1, SetupReps: len(setups)}
	var untraced time.Duration
	if o.trace == 1 {
		// The traced run's own untraced reference pass: the tracing
		// overhead is the traced passes' wall over this one.
		p, _, _, err := pass()
		if err != nil {
			return runInfo{}, result{}, fmt.Errorf("untraced pass: %w", err)
		}
		untraced = p.wall
		info.OutputDigest = p.digest
		e.tr = newTracer()
	}
	var walls, allocs, rss []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		e.tr.setTrace(fmt.Sprintf("%s/pass%d", o.workload, len(walls)+1))
		p, allocMB, rssMB, err := pass()
		if err != nil {
			return runInfo{}, result{}, fmt.Errorf("pass %d: %w", len(walls)+1, err)
		}
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, allocMB)
		rss = append(rss, rssMB)
		if info.OutputDigest == "" {
			info.OutputDigest = p.digest
		}
		e.check(p.digest == info.OutputDigest, "pass %d output digest %s differs from the first pass's %s",
			len(walls), p.digest, info.OutputDigest)
	}
	info.Passes = len(walls)
	info.Failures = e.failures

	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed}
	if o.trace == 0 {
		res.Metrics = endToEndMetrics(median(walls), median(setups))
		info.AllocMB, info.PeakRSSMB = median(allocs), median(rss)
	} else {
		res.Metrics = e.tr.layerMetrics(len(walls), median(walls)/untraced.Seconds())
		name := fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)
		if info.SpanFile, err = e.tr.writeSpans(filepath.Join(o.workdir, "spans", name)); err != nil {
			return runInfo{}, result{}, err
		}
		fmt.Fprintf(stderr, "bench: wrote %s\n", info.SpanFile)
	}
	return info, res, nil
}

// endToEndMetrics assembles the metrics BENCHMARK.json lists as end_to_end.
func endToEndMetrics(wall, setup float64) map[string]metric {
	return map[string]metric{
		"wall_s":  {wall, "s"},
		"setup_s": {setup, "s"},
	}
}

// heapAllocMB reads the bytes the process has allocated on the heap so far,
// in MB (10^6 B).
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// resetPeakRSS collects the heap, returns freed memory to the OS and
// restarts the kernel's peak-resident-set counter (VmHWM), so the peak read
// after a pass belongs to that pass alone.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB (10^6 B).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// median of a non-empty sample (statistics.median semantics).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
