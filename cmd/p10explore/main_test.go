package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"power10sim/internal/clitest"
	"power10sim/internal/runlog"
)

// writeLedger builds a training-grade ledger: real catalog workloads on real
// named configs with smooth analytic targets, enough rows for a fit.
func writeLedger(t *testing.T) string {
	t.Helper()
	configs := []string{"POWER9", "POWER10", "POWER10-noMMA", "POWER10-next"}
	wls := []string{"daxpy", "compress"}
	smts := []int{1, 2, 4}
	var sb strings.Builder
	seq := uint64(0)
	for ci, cfg := range configs {
		for wi, wl := range wls {
			for si, smt := range smts {
				seq++
				cpi := 0.6 + 0.1*float64(ci) + 0.2*float64(wi) + 0.15*float64(si)
				pw := 4.0 + 0.5*float64(ci) + 0.3*float64(wi) + 0.4*float64(si)
				cycles := uint64(cpi * 50000)
				rec := runlog.Record{
					Schema: runlog.Schema, Seq: seq, Time: "2026-08-01T10:00:00Z",
					Key:    fmt.Sprintf("%064d", seq),
					Config: cfg, Workload: wl, SMT: smt,
					Budget: 50000, Warmup: 2000, Tier: runlog.TierRun,
					Cycles: cycles, Instructions: 50000,
					CPI: cpi, IPC: 1 / cpi, PowerTotal: pw,
					EnergyTotal:     pw * float64(cycles),
					EnergyClock:     0.4 * pw * float64(cycles),
					EnergySwitching: 0.3 * pw * float64(cycles),
					EnergyArray:     0.2 * pw * float64(cycles),
					EnergyLeakage:   0.1 * pw * float64(cycles),
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				sb.Write(b)
				sb.WriteByte('\n')
			}
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, runlog.LedgerFile), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runTwice asserts the invocation succeeds and emits identical bytes on a
// second identical run — the byte-stability contract make explore-check
// enforces end to end.
func runTwice(t *testing.T, args []string) string {
	t.Helper()
	var out1, out2, errw bytes.Buffer
	if code := run(args, &out1, &errw); code != 0 {
		t.Fatalf("args %v: exit %d, stderr: %s", args, code, errw.String())
	}
	if code := run(args, &out2, &errw); code != 0 {
		t.Fatalf("second run: exit %d, stderr: %s", code, errw.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("two identical invocations rendered different bytes:\n--- first ---\n%s--- second ---\n%s", out1.String(), out2.String())
	}
	return out1.String()
}

func TestTrainValidateExplore(t *testing.T) {
	dir := writeLedger(t)
	model := filepath.Join(t.TempDir(), "model.json")

	got := runTwice(t, []string{"-op", "train", "-runlog", dir, "-model", model})
	if !strings.Contains(got, "24 records scanned, 24 trainable") {
		t.Errorf("train corpus accounting missing:\n%s", got)
	}
	if !strings.Contains(got, "saved "+model) {
		t.Errorf("train did not report the saved model:\n%s", got)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	vout := runTwice(t, []string{"-op", "validate", "-runlog", dir, "-holdout", "0.25", "-seed", "1"})
	if !strings.Contains(vout, "cpi") || !strings.Contains(vout, "mape%") {
		t.Errorf("validate table missing:\n%s", vout)
	}
	clitest.Golden(t, "validate", vout)

	eout := runTwice(t, []string{"-op", "explore", "-model", model, "-points", "200", "-k", "10", "-workload", "daxpy", "-seed", "3"})
	if !strings.Contains(eout, "space: 200 points, seed 3, workload daxpy, rank epi") {
		t.Errorf("explore header missing:\n%s", eout)
	}
	if !strings.Contains(eout, "simulated: 0 of 200 points (0.00%)") {
		t.Errorf("pure-prediction sweep reported simulations:\n%s", eout)
	}
	if strings.Count(eout, "pred") < 10 {
		t.Errorf("expected 10 predicted rows:\n%s", eout)
	}
	clitest.Golden(t, "explore", eout)
}

// TestHelpGolden pins -help: every flag with its default and help text.
// flag reports -help as a parse error, so the command exits 2 as for any
// other usage error.
func TestHelpGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-help"}, &out, &errw); code != 2 {
		t.Fatalf("-help: exit %d, want 2", code)
	}
	clitest.Golden(t, "help", errw.String())
}

// TestValidateGate checks the exit-3 contract the CI gate scripts on: an
// absurdly tight gate must fail, a loose one must pass.
func TestValidateGate(t *testing.T) {
	dir := writeLedger(t)
	var out, errw bytes.Buffer
	code := run([]string{"-op", "validate", "-runlog", dir, "-gate", "1e-9"}, &out, &errw)
	if code != 3 {
		t.Errorf("vanishing gate: exit %d, want 3 (stderr %q)", code, errw.String())
	}
	out.Reset()
	errw.Reset()
	code = run([]string{"-op", "validate", "-runlog", dir, "-gate", "99"}, &out, &errw)
	if code != 0 {
		t.Errorf("loose gate: exit %d, want 0 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(out.String(), "gate: served held-out cpi and power within") {
		t.Errorf("no gate confirmation line:\n%s", out.String())
	}
}

// TestValidateJSONArtifact checks the -json sidecar the committed validation
// artifact is produced from.
func TestValidateJSONArtifact(t *testing.T) {
	dir := writeLedger(t)
	art := filepath.Join(t.TempDir(), "surrogate.json")
	var out, errw bytes.Buffer
	if code := run([]string{"-op", "validate", "-runlog", dir, "-json", art}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	b, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		TrainRows int `json:"train_rows"`
		TestRows  int `json:"test_rows"`
		Targets   []struct {
			Name string  `json:"name"`
			MAPE float64 `json:"mape_pct"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.TrainRows == 0 || v.TestRows == 0 || len(v.Targets) != 6 {
		t.Errorf("artifact shape wrong: %+v", v)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                               // no op
		{"-op", "teleport"},              // unknown op
		{"-op", "train"},                 // no runlog
		{"-op", "train", "-runlog", "x"}, // no model
		{"-op", "explore"},               // no model
		{"-op", "explore", "-model", "m", "-points", "0"},    // bad points
		{"-op", "explore", "-model", "m", "-rank", "vibes"},  // bad rank
		{"-op", "explore", "-model", "m", "-sims", "3"},      // sims without runlog
		{"-op", "validate", "-runlog", "x", "-holdout", "2"}, // bad holdout
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, errw.String())
		}
	}
}

func TestMissingInputsAreRuntimeErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-op", "train", "-runlog", filepath.Join(t.TempDir(), "nope"), "-model", "m"}, &out, &errw); code != 1 {
		t.Errorf("missing ledger: exit %d, want 1", code)
	}
	out.Reset()
	if code := run([]string{"-op", "explore", "-model", filepath.Join(t.TempDir(), "nope.json")}, &out, &errw); code != 1 {
		t.Errorf("missing model: exit %d, want 1", code)
	}
}
