package main

import (
	"path/filepath"
	"testing"

	"power10sim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "p10faults", main) }

func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t) }

// TestCampaignGolden pins the validation and consequence tables of a small
// campaign; the campaign is deterministic in (seed, trials) for any -jobs.
func TestCampaignGolden(t *testing.T) {
	out, stderr, code := clitest.Run(t, "-trials", "24")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "trials24", out)
}

// TestUsageErrors covers the flag checks that must exit 2 before any trial
// runs. Each case also passes -trials 1 so a check that stopped firing costs
// a one-trial campaign.
func TestUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "out.json")
	for _, args := range [][]string{
		{"-metrics", bad},
		{"-flightrec", bad},
		{"-jobs", "-1"},
		{"-smt", "0"},
		{"-vts", "10,x"},
	} {
		clitest.UsageError(t, append(args, "-trials", "1")...)
	}
	clitest.UsageError(t, "-trials", "0")
}
