package main

import (
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10trace", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

// TestGoldens pins stdout for each mode: the Tracepoints-versus-Simpoint
// table on the interpreter, the paper's motivating case, and compress's
// proxies.
func TestGoldens(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "interp", "-mode", "tracepoints"},
		{"-workload", "compress", "-mode", "proxies"},
	} {
		name := args[1] + "-" + args[3]
		t.Run(name, func(t *testing.T) {
			out, stderr, code := clitest.Run(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			clitest.Golden(t, name, out)
		})
	}
}

// TestUsageErrors covers the name checks that must exit 2 before any
// profiling starts.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-workload", "nosuch"},
	} {
		clitest.UsageError(t, args...)
	}
	// There is no emit mode and no -out flag: nothing read the program
	// image and trace files it wrote.
	clitest.UsageError(t, "-mode", "emit")
	clitest.UsageError(t, "-out", t.TempDir())
}
