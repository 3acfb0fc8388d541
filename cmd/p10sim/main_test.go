package main

import (
	"path/filepath"
	"testing"

	"power10sim/internal/clitest"
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
