package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"power10sim/internal/clitest"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10sim", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

func TestDaxpyGolden(t *testing.T) {
	out, stderr, code := clitest.Run(t, "-workload", "daxpy")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "daxpy", out)
}

func TestDaxpySampledValidateGolden(t *testing.T) {
	out, stderr, code := clitest.Run(t, "-workload", "daxpy", "-sample-mode", "validate")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "daxpy-validate", out)
}

// TestUsageErrors covers the flag checks that must exit 2 before the
// simulation starts. Each case also passes -list so a check that stopped
// firing costs a workload listing, not a simulation.
func TestUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "out.json")
	for _, args := range [][]string{
		{"-metrics", bad},
		{"-trace", bad},
		{"-flightrec", bad},
		{"-smt", "0"},
		{"-budget", "0"},
		{"-sample-mode", "sampled", "-trace", filepath.Join(t.TempDir(), "t.json")},
	} {
		clitest.UsageError(t, append(args, "-list")...)
	}
	// There is no -pprof flag: -serve mounts /debug/pprof/* instead.
	clitest.UsageError(t, "-pprof", "127.0.0.1:0", "-list")
}

// TestRunLogRecordMatchesRunner: p10sim's -runlog record and the runner's
// record for the same request share the content key and every measured
// field, so ad-hoc runs join sweep history in p10query.
func TestRunLogRecordMatchesRunner(t *testing.T) {
	simDir, poolDir := t.TempDir(), t.TempDir()
	if _, stderr, code := clitest.Run(t, "-workload", "daxpy", "-runlog", simDir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}

	w := workloads.Catalog()["daxpy"]
	led, err := runlog.Open(poolDir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1)
	pool.SetRunLog(led)
	res := pool.Do(runner.Request{Cfg: uarch.ConfigByName("POWER10"), W: w, SMT: 1,
		Budget: w.Budget, Warmup: w.Warmup, MaxCycles: 50_000_000})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	only := func(dir string) runlog.Record {
		t.Helper()
		recs, _, err := runlog.ScanDir(dir)
		if err != nil || len(recs) != 1 {
			t.Fatalf("%s: %d records, %v; want 1", dir, len(recs), err)
		}
		r := recs[0]
		r.Time, r.Seq, r.WallSeconds, r.Command = "", 0, 0, ""
		return r
	}
	sim, pooled := only(simDir), only(poolDir)
	if sim.Key == "" || sim.EPI == 0 {
		t.Fatalf("p10sim record lacks a key or measurements: %+v", sim)
	}
	if !reflect.DeepEqual(sim, pooled) {
		t.Errorf("records differ:\np10sim %+v\nrunner %+v", sim, pooled)
	}
}
