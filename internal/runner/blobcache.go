package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"power10sim/internal/workloads"
)

// The blob cache generalizes the per-Request disk cache to any expensive
// deterministic derived artifact: the epoch-collection corpora behind the
// power-model figures, greedy counter-selection fits, the APEX core-vs-chip
// points. Those computations run simulations outside the Request shape
// (sampler callbacks, paired model variants), so the result cache alone
// cannot make a warm sweep skip them; content-keyed blobs can. The soundness
// argument is the same: every computation cached here is a pure function of
// the fingerprinted inputs (the whole sweep is covered by a determinism
// regression test), so a content hit may substitute for recomputation
// without changing one reported byte. Blobs share the result entries'
// checksummed format and corruption policy (see diskcache.go).

// WorkloadFingerprint returns a content fingerprint for a workload suitable
// for blob-cache keys: two independently built workloads with identical
// generator output share it, mirroring how Request keys collapse rebuilt
// programs.
func WorkloadFingerprint(w *workloads.Workload) string {
	if w == nil || w.Prog == nil {
		return "nil"
	}
	return fmt.Sprintf("%s|%d|%#x|%d|%d",
		w.Name, len(w.Prog.Code), w.Prog.Fingerprint(), w.Budget, w.Warmup)
}

// CachedJSON memoizes a deterministic computation in the runner's persistent
// cache directory. kind namespaces the artifact; fp must fingerprint every
// input the computation depends on (configs via %#v, workloads via
// WorkloadFingerprint, plus all scalar parameters). With no cache directory
// configured — or a nil runner — it degenerates to compute(). Marshal or
// write failures fall back to the computed value; a corrupt entry is
// quarantined and recomputed.
//
// With a cache directory, the runner also keeps every value it computed or
// decoded in memory for its life, and a later call for the same artifact
// returns that value without touching the disk. Callers share it, so they
// must treat it as read-only. Without a cache directory nothing is kept.
func CachedJSON[T any](r *Runner, kind, fp string, compute func() (T, error)) (T, error) {
	if r == nil || r.cacheDir == "" {
		return compute()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|blob|%s|%s", keyGeneration, kind, fp)
	path := filepath.Join(r.cacheDir, hex.EncodeToString(h.Sum(nil))+".json")
	r.mu.Lock()
	kept, ok := r.blobs[path].(T)
	r.mu.Unlock()
	if ok {
		return kept, nil
	}
	var v T
	if !r.readEntry(path, kind, func(value []byte) error { return json.Unmarshal(value, &v) }) {
		var err error
		if v, err = compute(); err != nil {
			var zero T
			return zero, err
		}
		r.writeEntry(path, kind, v)
	}
	r.mu.Lock()
	r.blobs[path] = v
	r.mu.Unlock()
	return v, nil
}
