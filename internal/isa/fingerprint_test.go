package isa_test

import (
	"sync"
	"testing"

	"power10sim/internal/workloads"
)

func TestFingerprintDistinguishesPrograms(t *testing.T) {
	a := workloads.Compress()
	b := workloads.Interp()
	if a.Prog.Fingerprint() == b.Prog.Fingerprint() {
		t.Error("different programs share a fingerprint")
	}
	// Identical content from separate constructions must collide (that is
	// the point of content keying). Daxpy builds afresh per call.
	c, d := workloads.Daxpy(64, 2).Prog, workloads.Daxpy(64, 2).Prog
	if c == d {
		t.Fatal("Daxpy returned one program twice; the test needs separate builds")
	}
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("identical program content fingerprints differently")
	}
}

// TestFingerprintPinned pins the hash itself: every memo and disk-cache
// key, ledger content key, blob key and fabric unit key is derived from it,
// so a change here would orphan every persisted cache entry.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		w    *workloads.Workload
		want uint64
	}{
		{workloads.Compress(), 0xa1fe590d43a35bfc},
		{workloads.Interp(), 0x1c7c31b2a83f735b},
		{workloads.GraphOpt(), 0xc9325502fa04ccbb},
		{workloads.Daxpy(64, 2), 0x94d4fb48c14994c9},
	} {
		if got := tc.w.Prog.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %#x, want %#x", tc.w.Name, got, tc.want)
		}
	}
}

// TestFingerprintConcurrent: the first calls on a fresh program may race
// each other (a batch keys one program from many goroutines); all must see
// one value. Run with -race. The named workloads are shared and may already
// be fingerprinted, so the program is a fresh Daxpy build with a data image.
func TestFingerprintConcurrent(t *testing.T) {
	p := workloads.Daxpy(4096, 12).Prog
	const callers = 8
	got := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Fingerprint()
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d saw %#x, caller 0 saw %#x", i, v, got[0])
		}
	}
}
