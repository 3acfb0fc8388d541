package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"power10sim/internal/telemetry"
	"power10sim/internal/workloads"
)

// The blob cache generalizes the per-Request disk cache to any expensive
// deterministic derived artifact: the epoch-collection corpora behind the
// power-model figures, greedy counter-selection fits, the APEX core-vs-chip
// points. Those computations run simulations outside the Request shape (epoch
// callbacks, paired model variants), so the result cache alone cannot make a
// warm sweep skip them; content-keyed blobs can. The soundness argument is
// the same: every computation cached here is a pure function of the
// fingerprinted inputs (the whole sweep is covered by a determinism
// regression test), so a content hit may substitute for recomputation without
// changing one reported byte.

// blobEnvelope wraps a stored artifact with enough identity to reject a
// foreign or stale file (the binding identity is the file name; the envelope
// is defense in depth against hand-edited cache directories).
type blobEnvelope[T any] struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Value  T      `json:"value"`
}

// WorkloadFingerprint returns a content fingerprint for a workload suitable
// for blob-cache keys: two independently built workloads with identical
// generator output share it, mirroring how Request keys collapse rebuilt
// programs.
func WorkloadFingerprint(w *workloads.Workload) string {
	if w == nil || w.Prog == nil {
		return "nil"
	}
	return fmt.Sprintf("%s|%d|%#x|%d|%d",
		w.Name, len(w.Prog.Code), fingerprint(w.Prog), w.Budget, w.Warmup)
}

// CachedJSON memoizes a deterministic computation in the runner's persistent
// cache directory. kind namespaces the artifact; fp must fingerprint every
// input the computation depends on (configs via %#v, workloads via
// WorkloadFingerprint, plus all scalar parameters). With no cache directory
// configured — or a nil runner — it degenerates to compute(). Marshal or
// write failures fall back to the computed value; corrupt entries read as
// misses and are rewritten.
func CachedJSON[T any](r *Runner, kind, fp string, compute func() (T, error)) (T, error) {
	var zero T
	if r == nil || r.cacheDir == "" {
		return compute()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|blob|%s|%s", diskSchema, kind, fp)
	path := filepath.Join(r.cacheDir, hex.EncodeToString(h.Sum(nil))+".json")
	if data, err := os.ReadFile(path); err == nil {
		var env blobEnvelope[T]
		if err := json.Unmarshal(data, &env); err == nil &&
			env.Schema == diskSchema && env.Kind == kind {
			r.mu.Lock()
			r.stats.DiskHits++
			r.stats.DiskReadBytes += uint64(len(data))
			r.mu.Unlock()
			r.obs.diskHits.Inc()
			r.obs.diskReadBytes.Add(uint64(len(data)))
			return env.Value, nil
		}
		r.diskMiss(uint64(len(data)))
	} else {
		r.diskMiss(0)
	}
	v, err := compute()
	if err != nil {
		return zero, err
	}
	data, err := json.Marshal(&blobEnvelope[T]{Schema: diskSchema, Kind: kind, Value: v})
	if err != nil {
		return v, nil
	}
	if err := telemetry.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return v, nil
	}
	r.mu.Lock()
	r.stats.DiskWrittenBytes += uint64(len(data))
	r.mu.Unlock()
	r.obs.diskWrittenBytes.Add(uint64(len(data)))
	return v, nil
}
