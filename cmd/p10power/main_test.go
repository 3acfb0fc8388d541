package main

import (
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10power", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

// TestReportGoldens pins the full report per workload. Names resolve
// through workloads.Catalog, so daxpy is the same Daxpy(4096, 12) that
// p10sim and the fabric submit API run.
func TestReportGoldens(t *testing.T) {
	for _, wl := range []string{"compress", "daxpy"} {
		t.Run(wl, func(t *testing.T) {
			out, stderr, code := clitest.Run(t, "-workload", wl)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			clitest.Golden(t, wl, out)
		})
	}
}

// TestUsageErrors covers the flag and name checks that must exit 2 before
// the simulation starts.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-smt", "0"},
		{"-top", "0"},
		{"-workload", "nope"},
		{"-config", "POWER8"},
	} {
		clitest.UsageError(t, args...)
	}
}
