package runner

import (
	"testing"

	"power10sim/internal/runlog"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestRunLogTiers drives the same request through execution, a memo hit,
// and (in a second runner modeling a new process) a disk hit, and asserts
// the ledger records each service tier with the shared content key.
func TestRunLogTiers(t *testing.T) {
	cacheDir, logDir := t.TempDir(), t.TempDir()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	wantKey, ok := ContentKey(req)
	if !ok || len(wantKey) != 64 {
		t.Fatalf("ContentKey = %q, %v", wantKey, ok)
	}

	led, err := runlog.Open(logDir, runlog.Options{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.SetRunLog(led)
	if err := r.SetCacheDir(cacheDir); err != nil {
		t.Fatal(err)
	}
	if res := r.Do(req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := r.Do(req); res.Err != nil { // memo hit
		t.Fatal(res.Err)
	}
	led.Close()

	led2, err := runlog.Open(logDir, runlog.Options{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(1)
	r2.SetRunLog(led2)
	if err := r2.SetCacheDir(cacheDir); err != nil {
		t.Fatal(err)
	}
	if res := r2.Do(req); res.Err != nil { // disk hit
		t.Fatal(res.Err)
	}
	led2.Close()

	recs, st, err := runlog.ScanDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.Corrupt != 0 {
		t.Fatalf("scan stats = %+v, want 3 clean records", st)
	}
	wantTiers := []string{runlog.TierRun, runlog.TierMemo, runlog.TierDisk}
	for i, rec := range recs {
		if rec.Tier != wantTiers[i] {
			t.Errorf("record %d: tier %q, want %q", i, rec.Tier, wantTiers[i])
		}
		if rec.Key != wantKey {
			t.Errorf("record %d: key %q, want shared content key", i, rec.Key)
		}
		if rec.Cycles == 0 || rec.Instructions == 0 || rec.CPI <= 0 ||
			rec.EnergyTotal <= 0 || rec.EPI <= 0 {
			t.Errorf("record %d missing measurements: %+v", i, rec)
		}
		if rec.Err != "" {
			t.Errorf("record %d unexpectedly failed: %s", i, rec.Err)
		}
	}
	// All three tiers must agree on the measurement (same simulation).
	if recs[0].Cycles != recs[1].Cycles || recs[0].Cycles != recs[2].Cycles {
		t.Errorf("tiers disagree on cycles: %d / %d / %d",
			recs[0].Cycles, recs[1].Cycles, recs[2].Cycles)
	}
}

// TestRunLogRecordsFailures: a failed execution still lands in the ledger
// with its error and tier, so campaigns account their losses.
func TestRunLogRecordsFailures(t *testing.T) {
	logDir := t.TempDir()
	led, err := runlog.Open(logDir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.SetRunLog(led)
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.MaxCycles = 10 // guaranteed strict-cycle-limit failure
	if res := r.Do(req); res.Err == nil {
		t.Fatal("want failure")
	}
	led.Close()
	recs, _, err := runlog.ScanDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err == "" || recs[0].Tier != runlog.TierRun {
		t.Fatalf("failure record = %+v", recs)
	}
	if recs[0].Cycles != 0 || recs[0].EnergyTotal != 0 {
		t.Errorf("failed record carries measurements: %+v", recs[0])
	}
}

// TestRunLogSkipsChaos: chaos self-test requests never pollute the ledger.
func TestRunLogSkipsChaos(t *testing.T) {
	logDir := t.TempDir()
	led, err := runlog.Open(logDir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.SetRunLog(led)
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.Chaos = &ChaosSpec{}
	if res := r.Do(req); res.Err != nil {
		t.Fatal(res.Err)
	}
	led.Close()
	if recs, _, err := runlog.ScanDir(logDir); err != nil || len(recs) != 0 {
		t.Fatalf("chaos request logged: %v recs, err %v", len(recs), err)
	}
}
