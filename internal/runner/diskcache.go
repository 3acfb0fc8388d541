package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"power10sim/internal/power"
	"power10sim/internal/sampling"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
)

// This file is the persistent layer under the in-process memoization cache:
// a content-addressed directory of completed simulation results, so repeated
// invocations of the CLI tools (iterating on one figure, re-running a sweep
// after an unrelated code change, cold-starting a fault campaign with the
// same baseline points) pay for each unique simulation once per machine, not
// once per process.
//
// Soundness rests on the same determinism argument as the memo cache, made
// durable: the file name is a SHA-256 over the full simulation identity —
// schema version, the entire Config value, the program content fingerprint,
// and every run parameter including injected-upset settings — so any change
// to the configuration, the workload generator output, or the key schema
// itself changes the name and reads as a miss. Nothing is ever invalidated in
// place; stale entries are simply never addressed again. The payload stores
// only simulator ground truth (the Activity counters and the upset outcome);
// the power Report is recomputed on load, so power-model changes take effect
// without versioning the cache.
//
// Writes go through telemetry.WriteFileAtomic (a temp file in the cache
// directory plus rename), so concurrent processes and interrupted runs can
// never publish a truncated entry; a corrupt or unreadable file is treated as
// a miss and overwritten by the next store.
// Chaos-injected requests never touch the disk layer: their failure budgets
// are per-spec-instance state that must not leak across processes.

// diskSchema versions the on-disk format; it participates in the key hash,
// so bumping it orphans (rather than misreads) every older entry.
const diskSchema = "p10cache-v1"

// diskPayload is the stored form of one completed simulation. Config and
// Workload echo the human-readable identity for `jq`-side inspection; the
// binding identity is the file name.
type diskPayload struct {
	Schema   string              `json:"schema"`
	Config   string              `json:"config"`
	Workload string              `json:"workload"`
	SMT      int                 `json:"smt"`
	Activity uarch.Activity      `json:"activity"`
	Upset    *uarch.UpsetOutcome `json:"upset,omitempty"`
	// Sampling preserves the estimator metadata of sampled runs; absent for
	// full simulations (older entries unmarshal with it nil).
	Sampling *sampling.Meta `json:"sampling,omitempty"`
}

// SetCacheDir enables the persistent result cache rooted at dir (created if
// missing). An empty dir disables the layer. Call before submitting
// requests; SetCacheDir is not synchronized with Do.
func (r *Runner) SetCacheDir(dir string) error {
	if dir == "" {
		r.cacheDir = ""
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache dir: %w", err)
	}
	r.cacheDir = dir
	return nil
}

// diskKey derives the content-addressed file name for a memo key. The hash
// covers the schema version, the full Config value (flat and comparable, so
// %#v renders every field deterministically), the program content
// fingerprint, and all run parameters.
func diskKey(k key) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%#v|%s|%d|%#x|%d|%d|%d|%d|%v|%#v",
		diskSchema, k.cfg, k.prog.name, k.prog.code, k.prog.hash,
		k.smt, k.budget, k.warmup, k.maxCycles, k.hasUpset, k.upset)
	if k.hasSample {
		// Appended only for sampled keys, so every pre-sampling cache entry
		// keeps its address.
		fmt.Fprintf(h, "|sample|%#v", k.sample)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (r *Runner) diskPath(k key) string {
	return filepath.Join(r.cacheDir, diskKey(k)+".json")
}

// diskUsable reports whether the request may use the persistent layer:
// enabled, and not a chaos run (whose mutable per-spec failure budget must
// not leak across processes).
func (r *Runner) diskUsable(req Request) bool {
	return r.cacheDir != "" && req.Chaos == nil
}

// diskLoad attempts to serve a request from the persistent cache. Any
// failure — missing file, corrupt JSON, schema mismatch — is a miss; a
// readable-but-unparseable entry is additionally quarantined (renamed to
// <key>.bad) so the damaged bytes are preserved for inspection but can never
// be re-hit, and the slot is free for the re-simulation to overwrite.
func (r *Runner) diskLoad(k key, req Request) (Result, bool) {
	path := r.diskPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		r.diskMiss(0)
		return Result{}, false
	}
	var p diskPayload
	if err := json.Unmarshal(data, &p); err != nil || p.Schema != diskSchema {
		// The file name hash covers the schema version, so a wrong-schema
		// payload under this name is corruption too, not a foreign
		// generation. Quarantine is best-effort: a failed rename still
		// reads as a plain miss.
		r.quarantine(path)
		r.diskMiss(uint64(len(data)))
		return Result{}, false
	}
	r.mu.Lock()
	r.stats.DiskHits++
	r.stats.DiskReadBytes += uint64(len(data))
	r.mu.Unlock()
	r.obs.diskHits.Inc()
	r.obs.diskReadBytes.Add(uint64(len(data)))
	act := p.Activity
	// The Report is derived state: recomputing it from the stored Activity
	// keeps cached entries valid across power-model changes and is exactly
	// what the execution path does (runCtx).
	rep := power.NewModel(req.Cfg).Report(&act)
	return Result{Activity: &act, Report: rep, Upset: p.Upset, Sampling: p.Sampling}, true
}

// quarantine renames a corrupt or truncated cache entry to "<key>.bad",
// counting it in DiskCorrupt / runner_diskcache_corrupt_total. Renaming (not
// deleting) keeps the evidence while guaranteeing the entry is never
// addressed again — .bad files are outside the content-key namespace.
func (r *Runner) quarantine(path string) {
	bad := strings.TrimSuffix(path, ".json") + ".bad"
	if err := os.Rename(path, bad); err != nil {
		return
	}
	r.mu.Lock()
	r.stats.DiskCorrupt++
	r.mu.Unlock()
	r.obs.diskCorrupt.Inc()
}

func (r *Runner) diskMiss(readBytes uint64) {
	r.mu.Lock()
	r.stats.DiskMisses++
	r.stats.DiskReadBytes += readBytes
	r.mu.Unlock()
	r.obs.diskMisses.Inc()
	r.obs.diskReadBytes.Add(readBytes)
}

// diskStore persists a successful result. Best-effort: a write failure
// (read-only cache, disk full) leaves the sweep correct and merely unscached,
// so errors are swallowed after zeroing the bytes accounting.
func (r *Runner) diskStore(k key, req Request, res Result) {
	if res.Err != nil || res.Activity == nil {
		return
	}
	p := diskPayload{
		Schema:   diskSchema,
		Config:   req.Cfg.Name,
		Workload: req.W.Name,
		SMT:      req.SMT,
		Activity: *res.Activity,
		Upset:    res.Upset,
		Sampling: res.Sampling,
	}
	data, err := json.Marshal(&p)
	if err != nil {
		return
	}
	if err := telemetry.WriteFileAtomic(r.diskPath(k), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return
	}
	r.mu.Lock()
	r.stats.DiskWrittenBytes += uint64(len(data))
	r.mu.Unlock()
	r.obs.diskWrittenBytes.Add(uint64(len(data)))
}
