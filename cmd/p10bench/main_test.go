package main

import (
	"path/filepath"
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10bench", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

func TestListGolden(t *testing.T) {
	out, stderr, code := clitest.Run(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "list", out)
}

// TestQuickSweepGolden pins the whole quick reproduction sweep: every table
// of every figure plus the closing runner summary. The stdout contract makes
// it independent of -jobs and scheduling.
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep takes ~15s")
	}
	out, stderr, code := clitest.Run(t, "-quick")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "quick", out)
}

// TestUsageErrors covers the flag checks that must exit 2 before any
// simulation starts. Each case also passes -list so a check that stopped
// firing costs a catalog listing, not a full sweep.
func TestUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "out.json")
	for _, args := range [][]string{
		{"-metrics", bad},
		{"-trace", bad},
		{"-flightrec", bad},
		{"-jobs", "-1"},
		{"-sample-mode", "nope"},
	} {
		clitest.UsageError(t, append(args, "-list")...)
	}
	// There is no -pprof flag: -serve mounts /debug/pprof/* instead.
	clitest.UsageError(t, "-pprof", "127.0.0.1:0", "-list")
	// There is no -runlog-series flag: the ledger keeps one record per run
	// and no time series beside it.
	clitest.UsageError(t, "-runlog", t.TempDir(), "-runlog-series", "4", "-list")
}
