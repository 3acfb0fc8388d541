package main

import (
	"path/filepath"
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10worker", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

// TestUsageErrors covers the flag checks that must exit 2 before the worker
// contacts a coordinator. The coordinator URL points at a closed loopback
// port, so a check that stopped firing fails fast instead of joining a fleet.
func TestUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "out.json")
	clitest.UsageError(t) // no -coord
	for _, args := range [][]string{
		{"-metrics", bad},
		{"-flightrec", bad},
		{"-jobs", "-1"},
		{"-batch", "-1"},
		{"-chaos", "explode"},
	} {
		clitest.UsageError(t, append(args, "-coord", "http://127.0.0.1:1")...)
	}
}
