// Package runlog is the persistent campaign-observability layer: a durable,
// provenance-rich history of every simulation the harness has ever run. Where
// the telemetry registry and the progress bus die with the process, the
// runlog survives it — each completed simulation appends one structured,
// schema-versioned record (content key, configuration, workload, SMT,
// sampling spec, cycles, CPI, per-component energy, wall time, cache tier,
// retry/fault outcome) to an append-only JSONL ledger under a campaign
// directory. The ledger is the substrate the query CLI (cmd/p10query), the
// live dashboard (/runs, /dashboard in internal/obsserver), and the future
// surrogate-training corpus all read from.
//
// Durability discipline:
//
//   - Appends are a single O_APPEND write of one newline-terminated JSON
//     line, so concurrent appenders in one process (the runner's worker
//     pool) never interleave partial lines; a mutex orders them anyway so
//     sequence numbers are strictly increasing in file order.
//   - Reopening tolerates a corrupt or truncated final line (a crashed
//     writer, a full disk): the opener detects the unterminated tail and
//     seals it with a newline before the first new append, and readers skip
//     unparseable lines while counting them (see scan.go).
//   - The schema version is embedded in every record; readers reject (skip
//     and count) records from other schema generations instead of
//     misinterpreting them. Nothing is ever rewritten in place.
package runlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"power10sim/internal/power"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
)

// Schema is the ledger record schema generation. It is embedded in every
// record; bumping it makes older records invisible to (rather than
// misread by) current readers.
const Schema = "p10runlog-v1"

// LedgerFile is the ledger's file name inside a runlog directory.
const LedgerFile = "ledger.jsonl"

// Cache tiers a record can carry: an actually executed simulation, a
// persistent disk-cache load, an in-process memoization hit, or an execution
// served remotely by the distributed sweep fabric (internal/fabric).
// TierSurrogate marks a learned-surrogate prediction. Earlier builds wrote
// it when the runner could serve predictions; no build writes it now, and
// readers keep it so that old ledgers still load and their predicted records
// never train a model or pass validation unmarked.
const (
	TierRun       = "run"
	TierDisk      = "disk"
	TierMemo      = "memo"
	TierFabric    = "fabric"
	TierSurrogate = "surrogate"
)

// Record is one ledger line: the full provenance and outcome of one
// simulation request the runner completed. Fields with omitempty are absent
// for the cases that do not produce them (energy fields on failed runs, the
// sampling spec on full runs).
type Record struct {
	// Schema is the record's schema generation (Schema at append time).
	Schema string `json:"schema"`
	// Seq is the ledger-assigned strictly increasing sequence number. It
	// survives reopen: a new process continues from the highest sequence
	// found on disk.
	Seq uint64 `json:"seq"`
	// Time is the append wall-clock time, RFC3339Nano in UTC.
	Time string `json:"time,omitempty"`
	// Command names the producing CLI ("p10bench", "p10sim", ...).
	Command string `json:"command,omitempty"`
	// Key is the simulation's content key: the same SHA-256 hex the
	// persistent run cache addresses the result by, so a ledger record can
	// be joined against cache entries and deduplicated across campaigns.
	Key string `json:"key"`

	// Identity: what was simulated.
	Config    string `json:"config"`
	Workload  string `json:"workload"`
	SMT       int    `json:"smt"`
	Budget    uint64 `json:"budget"`
	Warmup    uint64 `json:"warmup,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Sampled marks a SimPoint-style sampled estimate; SampleSpec is the
	// normalized sampling spec in compact form ("iv2000 k8 r3 w4 sig32 s1").
	// SampleGuarded marks a sampled request the sampler ran in full, because
	// its plan would have timed no fewer instructions than it covers: its
	// measurements are the full run's.
	Sampled       bool   `json:"sampled,omitempty"`
	SampleSpec    string `json:"sample_spec,omitempty"`
	SampleGuarded bool   `json:"sample_guarded,omitempty"`
	// Upset marks a fault-injection run; FaultOutcome summarizes what the
	// injected upset hit ("landed:MUL", "missed").
	Upset        bool   `json:"upset,omitempty"`
	FaultOutcome string `json:"fault_outcome,omitempty"`

	// Outcome: how the request was served and what it cost.
	//
	// Tier is "run" (executed), "disk" (persistent-cache load), or "memo"
	// (in-process memoization hit, including coalescing onto an in-flight
	// identical run).
	Tier string `json:"tier"`
	// Attempts is the execution attempt count (>1 after transient retries);
	// zero for cache tiers.
	Attempts int `json:"attempts,omitempty"`
	// Err is the terminal error for failed executions.
	Err string `json:"error,omitempty"`
	// WallSeconds is the wall-clock cost of serving the request at its tier
	// (execution time for "run", load time for "disk", wait time for "memo").
	WallSeconds float64 `json:"wall_seconds"`

	// Measurements (absent when Err is set).
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	CPI          float64 `json:"cpi,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	// PowerTotal is the average power of the run (model units); the energy
	// fields integrate it over the run's cycles, per Einspower category.
	PowerTotal      float64 `json:"power_total,omitempty"`
	EnergyTotal     float64 `json:"energy_total,omitempty"`
	EnergyClock     float64 `json:"energy_clock,omitempty"`
	EnergySwitching float64 `json:"energy_switching,omitempty"`
	EnergyArray     float64 `json:"energy_array,omitempty"`
	EnergyLeakage   float64 `json:"energy_leakage,omitempty"`
	// EPI is energy per retired instruction, the ledger's headline
	// efficiency metric (what p10query's top-k and trend modes rank by).
	EPI float64 `json:"energy_per_inst,omitempty"`

	// Predicted marks a surrogate-served record: its measurements are model
	// estimates, not simulation output. CPIRelStd / PowerRelStd are the
	// model's relative standard errors for the estimate. Earlier builds
	// wrote these fields (tier "surrogate", and memo restatements of it);
	// readers keep them so that old ledgers still load and their predicted
	// records are never used as training data.
	Predicted   bool    `json:"predicted,omitempty"`
	CPIRelStd   float64 `json:"cpi_rel_std,omitempty"`
	PowerRelStd float64 `json:"power_rel_std,omitempty"`

	// Spec carries the full machine configuration when Config is not a
	// catalog name (design-space points like "dse7-00123"). Catalog-named
	// records omit it — the name alone reconstructs the geometry — so
	// standard-sweep ledgers stay compact, while explorer ledgers remain
	// self-describing and their ground-truth rows can rejoin a training
	// corpus.
	Spec *uarch.Config `json:"spec,omitempty"`
}

// SimLabel renders the record's simulation identity the way the progress
// plane labels it: "workload@config/smtN".
func (r *Record) SimLabel() string {
	return fmt.Sprintf("%s@%s/smt%d", r.Workload, r.Config, r.SMT)
}

// Measure fills the measurement fields from a finished run's activity and
// power report, integrating the average power over the run's cycles into
// per-category energy.
func (r *Record) Measure(a *uarch.Activity, rep *power.Report) {
	cyc := float64(a.Cycles)
	r.Cycles = a.Cycles
	r.Instructions = a.Instructions
	r.CPI = a.CPI()
	r.IPC = a.IPC()
	r.PowerTotal = rep.Total
	r.EnergyTotal = rep.Total * cyc
	r.EnergyClock = rep.Clock * cyc
	r.EnergySwitching = rep.Switching * cyc
	r.EnergyArray = rep.Array * cyc
	r.EnergyLeakage = rep.Leakage * cyc
	if a.Instructions > 0 {
		r.EPI = r.EnergyTotal / float64(a.Instructions)
	}
}

// Options configures a Ledger.
type Options struct {
	// Command stamps records whose Command field is empty.
	Command string
	// RecentCap bounds the in-memory ring of recent records served to the
	// observability server's /runs endpoint (default 512). The ring is
	// preloaded with the ledger tail on open, so a fresh process's dashboard
	// still shows campaign history.
	RecentCap int
}

// Ledger is an open runlog directory: the append handle for the JSONL
// ledger plus the in-memory recent ring. All methods are safe for
// concurrent use; every method on a nil *Ledger is a no-op, so call sites
// instrument unconditionally.
type Ledger struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	needNL    bool // unterminated tail detected on open; seal before appending
	nextSeq   uint64
	records   uint64 // appended this process
	bytes     uint64
	recent    []Record // ring, oldest-first once rotated
	recentCap int

	// Telemetry (nil-safe): the runlog_* counter family.
	recCtr, byteCtr *telemetry.Counter
}

// Open opens (creating if needed) the runlog directory and its ledger for
// appending. The existing ledger, if any, is scanned once: the highest valid
// sequence number seeds the appender, the tail records preload the recent
// ring, and an unterminated final line is detected so the first append seals
// it rather than extending a torn record.
func Open(dir string, opts Options) (*Ledger, error) {
	if dir == "" {
		return nil, fmt.Errorf("runlog: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if opts.RecentCap <= 0 {
		opts.RecentCap = 512
	}
	l := &Ledger{dir: dir, opts: opts, recentCap: opts.RecentCap}
	path := filepath.Join(dir, LedgerFile)
	if prev, stats, err := scanFile(path); err == nil {
		for _, r := range prev {
			if r.Seq >= l.nextSeq {
				l.nextSeq = r.Seq + 1
			}
			l.pushRecent(r)
		}
		l.needNL = stats.UnterminatedTail
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("runlog: scan existing ledger: %w", err)
	}
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	l.f = f
	return l, nil
}

// Dir returns the runlog directory. Safe on nil (returns "").
func (l *Ledger) Dir() string {
	if l == nil {
		return ""
	}
	return l.dir
}

// Instrument attaches the runlog counter family to a registry:
//
//	runlog_records_total  ledger records appended this process
//	runlog_bytes_total    ledger bytes appended this process
//
// A nil registry (or ledger) leaves the counters off.
func (l *Ledger) Instrument(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.recCtr = reg.Counter("runlog_records_total")
	l.byteCtr = reg.Counter("runlog_bytes_total")
}

// Append stamps the record (Schema, Seq, Time and Command when unset) and
// appends it as one JSONL line. Safe on nil (no-op).
func (l *Ledger) Append(rec Record) error {
	if l == nil {
		return nil
	}
	rec.Schema = Schema
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if rec.Command == "" {
		rec.Command = l.opts.Command
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.nextSeq
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("runlog: marshal: %w", err)
	}
	if err := l.appendLine(data); err != nil {
		return fmt.Errorf("runlog: append: %w", err)
	}
	l.nextSeq++
	l.records++
	l.bytes += uint64(len(data)) + 1
	l.recCtr.Inc()
	l.byteCtr.Add(uint64(len(data)) + 1)
	l.pushRecent(rec)
	return nil
}

// appendLine writes one newline-terminated line in a single Write call
// (atomic under O_APPEND for line-sized payloads), sealing a previously
// detected unterminated tail first. The caller holds mu.
func (l *Ledger) appendLine(data []byte) error {
	if l.needNL {
		if _, err := l.f.Write([]byte("\n")); err != nil {
			return err
		}
		l.needNL = false
	}
	line := make([]byte, 0, len(data)+1)
	line = append(line, data...)
	line = append(line, '\n')
	_, err := l.f.Write(line)
	return err
}

// pushRecent adds a record to the bounded recent ring (caller holds mu or is
// the opener before concurrent use).
func (l *Ledger) pushRecent(r Record) {
	if len(l.recent) < l.recentCap {
		l.recent = append(l.recent, r)
		return
	}
	copy(l.recent, l.recent[1:])
	l.recent[len(l.recent)-1] = r
}

// Recent returns up to n of the most recently appended (or tail-preloaded)
// records, oldest first. Safe on nil (returns nil).
func (l *Ledger) Recent(n int) []Record {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.recent) {
		n = len(l.recent)
	}
	out := make([]Record, n)
	copy(out, l.recent[len(l.recent)-n:])
	return out
}

// Appended returns the records and bytes appended by this process. Safe on
// nil.
func (l *Ledger) Appended() (records, bytes uint64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records, l.bytes
}

// Close closes the ledger file handle. Safe on nil.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// scanFile reads a ledger file tolerantly: parseable current-schema lines
// become records, everything else is counted (see ScanStats). Line-oriented
// and unbounded-line-safe via bufio.Reader.
func scanFile(path string) ([]Record, ScanStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	defer f.Close()
	return scanReader(bufio.NewReader(f))
}

func scanReader(br *bufio.Reader) ([]Record, ScanStats, error) {
	var recs []Record
	var st ScanStats
	for {
		line, err := br.ReadBytes('\n')
		terminated := err == nil
		if len(line) > 0 {
			st.Lines++
			st.Bytes += int64(len(line))
			if !terminated {
				// The torn tail of an interrupted writer: tolerated, and the
				// next appender seals it with a newline. This must be
				// reported even when the tail happens to parse (the writer
				// died between the record bytes and the newline) — appending
				// to an unsealed complete record would merge two records
				// into one corrupt line and lose both.
				st.UnterminatedTail = true
			}
			var r Record
			switch uerr := json.Unmarshal(line, &r); {
			case uerr != nil:
				if terminated {
					st.Corrupt++
				}
			case r.Schema != Schema:
				// A parseable record from another schema generation is
				// rejected rather than misinterpreted.
				st.WrongSchema++
			default:
				recs = append(recs, r)
				st.Records++
			}
		}
		if err == io.EOF {
			return recs, st, nil
		}
		if err != nil {
			return recs, st, err
		}
	}
}
