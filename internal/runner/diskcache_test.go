package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func TestDiskCacheRoundTripAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 2)

	cold := New(1)
	if err := cold.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	first := cold.Do(req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	st := cold.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Errorf("cold run: disk hits=%d misses=%d, want 0/1", st.DiskHits, st.DiskMisses)
	}
	if st.DiskWrittenBytes == 0 {
		t.Error("cold run wrote no cache bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries, want 1", len(entries))
	}

	// A fresh runner (modeling a new process) must serve the same request
	// from disk without executing, with an identical result.
	warm := New(1)
	if err := warm.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	second := warm.Do(req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	st = warm.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("warm run: disk hits=%d misses=%d, want 1/0", st.DiskHits, st.DiskMisses)
	}
	if st.DiskReadBytes == 0 {
		t.Error("warm run read no cache bytes")
	}
	// Memo semantics are unchanged: the disk hit is still this process's
	// unique request.
	if st.Hits != 0 || st.Misses != 1 {
		t.Errorf("warm run: memo hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	if !reflect.DeepEqual(first.Activity, second.Activity) {
		t.Error("disk-loaded activity differs from executed activity")
	}
	if !reflect.DeepEqual(first.Report, second.Report) {
		t.Error("disk-loaded report differs from executed report")
	}
}

func TestDiskCacheUpsetOutcomeSurvives(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.Upset = &uarch.Upset{Cycle: 300, Target: uarch.UpsetEA, Slot: 1, Bit: 5}

	cold := New(1)
	if err := cold.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	first := cold.Do(req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Upset == nil {
		t.Fatal("injected run reported no upset outcome")
	}
	warm := New(1)
	if err := warm.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	second := warm.Do(req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if warm.Stats().DiskHits != 1 {
		t.Fatalf("upset request missed the disk cache: %+v", warm.Stats())
	}
	if second.Upset == nil || *second.Upset != *first.Upset {
		t.Errorf("upset outcome did not survive the disk: got %+v want %+v", second.Upset, first.Upset)
	}
}

// A damaged or empty entry is never served: the request re-executes and
// rewrites the entry. An older-generation entry is a plain miss; anything
// else is quarantined. CachedJSON blobs share the policy.
func TestDiskCacheCorruptEntryIsAMissAndRepaired(t *testing.T) {
	cases := []struct {
		name    string
		data    string
		corrupt uint64
	}{
		{"truncated", "{truncated", 1},
		{"empty older entry", `{"schema":"p10cache-v1"}`, 0},
		{"entry without value", `{"schema":"p10cache-v2","kind":"result","sum":"00"}`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			req := testRequest(uarch.POWER10(), workloads.Compress(), 1)

			r := New(1)
			if err := r.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			first := r.Do(req)
			if first.Err != nil {
				t.Fatal(first.Err)
			}
			k, ok := keyOf(req)
			if !ok {
				t.Fatal("unkeyable test request")
			}
			path := r.diskPath(k)
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}

			r2 := New(1)
			if err := r2.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			res := r2.Do(req)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			st := r2.Stats()
			if st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskCorrupt != tc.corrupt {
				t.Errorf("disk hits=%d misses=%d corrupt=%d, want 0/1/%d",
					st.DiskHits, st.DiskMisses, st.DiskCorrupt, tc.corrupt)
			}
			if !reflect.DeepEqual(first.Activity, res.Activity) {
				t.Error("re-executed result differs from original")
			}
			// The bad entry must have been overwritten with a valid one.
			r3 := New(1)
			if err := r3.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			if res := r3.Do(req); res.Err != nil {
				t.Fatal(res.Err)
			} else if r3.Stats().DiskHits != 1 {
				t.Error("repaired entry did not serve a disk hit")
			}
		})
	}
	testBlobCorruptEntries(t)
}

// testBlobCorruptEntries damages a CachedJSON blob the same ways: the blob
// is recomputed, never served, and quarantined unless it is an older
// generation.
func testBlobCorruptEntries(t *testing.T) {
	flipDigit := func(data []byte) []byte {
		i := strings.Index(string(data), `"value":`) + len(`"value":`)
		data[i] ^= 0x01 // 42 -> 52
		return data
	}
	cases := []struct {
		name    string
		mutate  func(entry []byte) []byte
		corrupt uint64
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, 1},
		{"older entry without value", func([]byte) []byte { return []byte(`{"schema":"p10cache-v1","kind":"pin"}`) }, 0},
		{"entry without value", func([]byte) []byte { return []byte(`{"schema":"p10cache-v2","kind":"pin"}`) }, 1},
		{"wrong kind", func(b []byte) []byte { return []byte(strings.Replace(string(b), `"pin"`, `"pun"`, 1)) }, 1},
		{"digit flip", flipDigit, 1},
	}
	compute := func() (int, error) { return 42, nil }
	for _, tc := range cases {
		t.Run("blob "+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := New(1)
			if err := r.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := CachedJSON(r, "pin", "fp", compute); err != nil {
				t.Fatal(err)
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
			if len(paths) != 1 {
				t.Fatalf("cache dir holds %v, want one blob", paths)
			}
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r2 := New(1)
			if err := r2.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			if v, err := CachedJSON(r2, "pin", "fp", compute); err != nil || v != 42 {
				t.Fatalf("CachedJSON = %d, %v; want the computed 42", v, err)
			}
			st := r2.Stats()
			if st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskCorrupt != tc.corrupt {
				t.Errorf("disk hits=%d misses=%d corrupt=%d, want 0/1/%d",
					st.DiskHits, st.DiskMisses, st.DiskCorrupt, tc.corrupt)
			}
			bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
			if uint64(len(bad)) != tc.corrupt {
				t.Errorf("quarantined files %v, want %d", bad, tc.corrupt)
			}

			r3 := New(1)
			if err := r3.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			v, err := CachedJSON(r3, "pin", "fp", func() (int, error) {
				t.Error("repaired blob recomputed")
				return 0, nil
			})
			if err != nil || v != 42 || r3.Stats().DiskHits != 1 {
				t.Errorf("repaired blob = %d, %v, stats %+v; want a disk hit of 42", v, err, r3.Stats())
			}
		})
	}
}

// TestCachedJSONKeepsValues checks the in-memory layer over the blob cache:
// with a cache directory a runner computes or decodes an artifact once and
// hands every later caller, concurrent ones included, that one value
// without reading the disk; without a cache directory every call computes.
func TestCachedJSONKeepsValues(t *testing.T) {
	dir := t.TempDir()
	computes := 0
	compute := func() (*[]int, error) {
		computes++
		return &[]int{42}, nil
	}
	call := func(r *Runner) *[]int {
		t.Helper()
		v, err := CachedJSON(r, "pin", "fp", compute)
		if err != nil || v == nil || (*v)[0] != 42 {
			t.Fatalf("CachedJSON = %v, %v; want [42]", v, err)
		}
		return v
	}

	r := New(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	first := call(r)
	if again := call(r); again != first || computes != 1 {
		t.Errorf("second call: same value %v, computes %d; want the kept value and 1", again == first, computes)
	}
	if st := r.Stats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Errorf("disk hits=%d misses=%d, want 0/1", st.DiskHits, st.DiskMisses)
	}

	r2 := New(4)
	if err := r2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	decoded := call(r2)
	if decoded == first {
		t.Error("a second runner shares the first runner's value")
	}
	got := make([]*[]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := CachedJSON(r2, "pin", "fp", compute)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != decoded {
			t.Errorf("concurrent call %d got another value", i)
		}
	}
	if st := r2.Stats(); computes != 1 || st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("computes %d, disk hits=%d misses=%d; want 1, 1/0", computes, st.DiskHits, st.DiskMisses)
	}

	plain := New(1)
	if a, b := call(plain), call(plain); a == b || computes != 3 {
		t.Errorf("without a cache directory: same value %v, computes %d; want two computations", a == b, computes)
	}
}

func TestDiskCacheSkipsChaosRequests(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	req.Chaos = &ChaosSpec{}

	r := New(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if res := r.Do(req); res.Err != nil {
		t.Fatal(res.Err)
	}
	st := r.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Errorf("chaos request touched the disk layer: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("chaos request persisted %d entries", len(entries))
	}
}

func TestDiskKeySensitivity(t *testing.T) {
	base := testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 1)
	kBase, _ := keyOf(base)

	cfgVariant := testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 1)
	cfg2 := *cfgVariant.Cfg
	cfg2.FetchWidth++
	cfgVariant.Cfg = &cfg2

	smtVariant := testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 2)
	upsetVariant := base
	upsetVariant.Upset = &uarch.Upset{Cycle: 1}

	for name, req := range map[string]Request{
		"config": cfgVariant, "smt": smtVariant, "upset": upsetVariant,
	} {
		k, ok := keyOf(req)
		if !ok {
			t.Fatalf("%s variant unkeyable", name)
		}
		if diskKey(k) == diskKey(kBase) {
			t.Errorf("%s variant shares the base disk key", name)
		}
	}
	// Same content, distinct construction: must share the key (that is the
	// whole point of content addressing). Daxpy builds afresh per call.
	sameReq := testRequest(uarch.POWER10(), workloads.Daxpy(4096, 12), 1)
	if sameReq.W.Prog == base.W.Prog {
		t.Fatal("Daxpy returned one program twice; the test needs separate builds")
	}
	same, _ := keyOf(sameReq)
	if diskKey(same) != diskKey(kBase) {
		t.Error("identical requests derived different disk keys")
	}
	if filepath.Ext(diskKey(kBase)+".json") != ".json" {
		t.Error("unexpected key format")
	}
}

// A single flipped bit in a persisted entry — the classic silent-media-error
// shape — must never be served, must be quarantined to <key>.bad with the
// damaged bytes intact for inspection, and must be counted, while the request
// itself transparently re-executes and repairs the entry.
func TestDiskCacheBitFlipQuarantined(t *testing.T) {
	cases := []struct {
		name string
		flip func(data []byte) int // returns the byte index to flip
	}{
		// The opening brace: the entry no longer parses.
		{"brace", func([]byte) int { return 0 }},
		// The first digit of the cycle count: still valid JSON, a
		// plausible but wrong measurement (3508 -> 2508 cycles).
		{"digit", func(data []byte) int {
			return strings.Index(string(data), `"Cycles":`) + len(`"Cycles":`)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			req := testRequest(uarch.POWER10(), workloads.Compress(), 1)

			r := New(1)
			if err := r.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			first := r.Do(req)
			if first.Err != nil {
				t.Fatal(first.Err)
			}
			k, ok := keyOf(req)
			if !ok {
				t.Fatal("unkeyable test request")
			}
			path := r.diskPath(k)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.flip(data)] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			reg := telemetry.NewRegistry()
			r2 := New(1)
			r2.Instrument(reg, nil)
			if err := r2.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			res := r2.Do(req)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !reflect.DeepEqual(first.Activity, res.Activity) {
				t.Errorf("served %d cycles, want the executed %d", res.Activity.Cycles, first.Activity.Cycles)
			}
			st := r2.Stats()
			if st.DiskCorrupt != 1 || st.DiskHits != 0 {
				t.Errorf("stats = corrupt %d hits %d, want 1/0", st.DiskCorrupt, st.DiskHits)
			}
			if got := reg.Counter("runner_diskcache_corrupt_total").Value(); got != 1 {
				t.Errorf("runner_diskcache_corrupt_total = %d, want 1", got)
			}
			bad := strings.TrimSuffix(path, ".json") + ".bad"
			kept, err := os.ReadFile(bad)
			if err != nil {
				t.Fatalf("quarantined entry missing: %v", err)
			}
			if !reflect.DeepEqual(kept, data) {
				t.Error("quarantined bytes differ from the damaged entry")
			}
			// The repair wrote a fresh entry under the same key; a third
			// runner serves it as a plain disk hit.
			r3 := New(1)
			if err := r3.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			if res := r3.Do(req); res.Err != nil {
				t.Fatal(res.Err)
			} else if r3.Stats().DiskHits != 1 {
				t.Error("repaired entry did not serve a disk hit")
			}
		})
	}
}
