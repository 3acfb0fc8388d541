package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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
// a content-addressed directory of completed simulation results and derived
// artifacts (CachedJSON blobs), so repeated invocations of the CLI tools pay
// for each unique simulation once per machine, not once per process.
//
// Soundness rests on the same determinism argument as the memo cache, made
// durable: the file name is a SHA-256 over the full simulation identity —
// key generation, the entire Config value, the program content fingerprint,
// and every run parameter including injected-upset settings — so any change
// to the configuration or the workload generator output changes the name
// and reads as a miss. Nothing is ever invalidated in place; stale entries
// are simply never addressed again. A result stores only simulator ground
// truth (see GroundTruth); the power Report is recomputed on load, so
// power-model changes take effect without versioning the cache.
//
// Every file holds one entry:
//
//	{"schema":"p10cache-v2","kind":"result","sum":"<hex>","value":{...}}
//
// kind is "result" for simulation results and the CachedJSON kind for
// blobs; sum is the hex SHA-256 of the value bytes. readEntry serves a value
// only when its sum verifies. An entry that does not parse, has another
// schema or kind, has no value, or fails its sum is quarantined to
// <key>.bad and counted in DiskCorrupt. Writes go through
// telemetry.WriteFileAtomic, so concurrent processes and interrupted runs
// never publish a truncated entry. Chaos-injected requests never touch the
// disk layer: their failure budgets are per-spec-instance state that must
// not leak across processes.

const (
	// keyGeneration is hashed into every file name. Bumping it orphans
	// (rather than misreads) every existing entry. The entry format changed
	// without bumping it, so file names stayed put across that change.
	keyGeneration = "p10cache-v1"
	// entrySchema tags the current, checksummed entry format.
	entrySchema = "p10cache-v2"
	// olderSchema tags entries written before the checksum existed. They
	// read as plain misses and are rewritten in the current format.
	olderSchema = keyGeneration
	// resultKind is the entry kind of a simulation result.
	resultKind = "result"
)

// diskEntry is the stored form of every cache file.
type diskEntry struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Sum    string          `json:"sum"`
	Value  json.RawMessage `json:"value"`
}

// errOlderEntry marks an entry of the pre-checksum generation.
var errOlderEntry = errors.New("older cache entry generation")

// encodeEntry marshals v into a checksummed entry of the given kind.
func encodeEntry(kind string, v any) ([]byte, error) {
	value, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(value)
	return json.Marshal(&diskEntry{Schema: entrySchema, Kind: kind, Sum: hex.EncodeToString(sum[:]), Value: value})
}

// decodeEntry returns the value bytes of an entry of the given kind, and
// only when they match the entry's sum. An older-generation entry returns
// errOlderEntry; every other failure means the file is corrupt.
func decodeEntry(data []byte, kind string) ([]byte, error) {
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	switch {
	case e.Schema == olderSchema:
		return nil, errOlderEntry
	case e.Schema != entrySchema || e.Kind != kind:
		return nil, fmt.Errorf("entry is %q/%q, want %q/%q", e.Schema, e.Kind, entrySchema, kind)
	case len(e.Value) == 0:
		return nil, errors.New("entry has no value")
	}
	if sum := sha256.Sum256(e.Value); hex.EncodeToString(sum[:]) != e.Sum {
		return nil, errors.New("entry fails its checksum")
	}
	return e.Value, nil
}

// readEntry loads the entry at path and hands its verified value to decode.
// A missing file or an older-generation entry is a plain miss; any other
// failure, decode's included, quarantines the file.
func (r *Runner) readEntry(path, kind string, decode func(value []byte) error) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		r.obs.diskMisses.Inc()
		return false
	}
	r.obs.diskReadBytes.Add(uint64(len(data)))
	value, err := decodeEntry(data, kind)
	if err == nil {
		err = decode(value)
	}
	if err == nil {
		r.obs.diskHits.Inc()
		return true
	}
	if !errors.Is(err, errOlderEntry) {
		r.quarantine(path)
	}
	r.obs.diskMisses.Inc()
	return false
}

// writeEntry persists v as an entry of the given kind. Best-effort: a
// marshal or write failure (read-only cache, disk full) leaves the sweep
// correct and merely uncached.
func (r *Runner) writeEntry(path, kind string, v any) {
	data, err := encodeEntry(kind, v)
	if err != nil {
		return
	}
	if err := telemetry.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return
	}
	r.obs.diskWrittenBytes.Add(uint64(len(data)))
}

// quarantine renames a corrupt cache entry to "<key>.bad", counting it in
// DiskCorrupt / runner_diskcache_corrupt_total. Renaming (not deleting)
// keeps the evidence while guaranteeing the entry is never addressed again —
// .bad files are outside the content-key namespace. A failed rename still
// reads as a plain miss.
func (r *Runner) quarantine(path string) {
	bad := strings.TrimSuffix(path, ".json") + ".bad"
	if err := os.Rename(path, bad); err != nil {
		return
	}
	r.obs.diskCorrupt.Inc()
}

// GroundTruth is all the runner stores of a completed simulation, and all
// the fabric ships: the simulator's own outputs. Rebuild derives the rest.
type GroundTruth struct {
	Activity *uarch.Activity     `json:"activity"`
	Upset    *uarch.UpsetOutcome `json:"upset,omitempty"`
	Sampling *sampling.Meta      `json:"sampling,omitempty"`
}

// Rebuild turns stored ground truth back into a Result for req. The power
// Report is recomputed under req's config, exactly as execution computes it,
// so stored results stay valid across power-model changes. The result owns
// fresh copies of everything.
func (g GroundTruth) Rebuild(req Request) (Result, error) {
	if g.Activity == nil {
		return Result{}, errors.New("result has no activity")
	}
	act := copyOf(g.Activity)
	return Result{Activity: act, Report: power.NewModel(req.Cfg).Report(act),
		Upset: copyOf(g.Upset), Sampling: copyOf(g.Sampling)}, nil
}

// SetCacheDir enables the persistent result cache rooted at dir (created if
// missing). An empty dir disables the layer. Call before submitting
// requests; SetCacheDir is not synchronized with Do.
func (r *Runner) SetCacheDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cache dir: %w", err)
		}
	}
	r.cacheDir = dir
	return nil
}

// diskKey derives the content-addressed file name for a memo key. The hash
// covers the key generation, the full Config value (flat and comparable, so
// %#v renders every field deterministically), the program content
// fingerprint, and all run parameters.
func diskKey(k key) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%#v|%s|%d|%#x|%d|%d|%d|%d|%v|%#v",
		keyGeneration, k.cfg, k.prog.name, k.prog.code, k.prog.hash,
		k.smt, k.budget, k.warmup, k.maxCycles, k.hasUpset, k.upset)
	if k.hasSample {
		// Appended only for sampled keys, so every full-run entry keeps its
		// address. The tag names the guarded sampler: a sampled request whose
		// plan would time no fewer instructions than it covers now runs in
		// full, so the entries the unguarded sampler wrote under "|sample|",
		// estimates that could break their error bounds, are orphaned rather
		// than served.
		fmt.Fprintf(h, "|sample-guarded|%#v", k.sample)
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

// diskLoad attempts to serve a request from the persistent cache.
func (r *Runner) diskLoad(k key, req Request) (res Result, ok bool) {
	ok = r.readEntry(r.diskPath(k), resultKind, func(value []byte) error {
		var g GroundTruth
		if err := json.Unmarshal(value, &g); err != nil {
			return err
		}
		var err error
		res, err = g.Rebuild(req)
		return err
	})
	return res, ok
}

// diskStore persists a successful result's ground truth.
func (r *Runner) diskStore(k key, res Result) {
	r.writeEntry(r.diskPath(k), resultKind, GroundTruth{Activity: res.Activity, Upset: res.Upset, Sampling: res.Sampling})
}
