package main

import (
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10coord", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

// TestListMatchesBench checks that the coordinator lists the same catalog
// p10bench does: both render it through the shared sweep driver.
func TestListMatchesBench(t *testing.T) {
	out, stderr, code := clitest.Run(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("..", "p10bench", "testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("p10coord -list differs from p10bench -list:\n%s", out)
	}
}

// TestUsageErrors covers the flag checks that must exit 2 before the
// coordinator listens. Each case also passes -list so a check that stopped
// firing costs a catalog listing, not a fleet sweep.
func TestUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "out.json")
	for _, args := range [][]string{
		{"-metrics", bad},
		{"-trace", bad},
		{"-flightrec", bad},
		{"-jobs", "-1"},
		{"-runlog-series", "4"},
		{"-min-workers", "-1"},
		{"-max-attempts", "0"},
		{"-listen", ""},
	} {
		clitest.UsageError(t, append(args, "-list")...)
	}
}
