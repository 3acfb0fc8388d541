// Package fabric is the distributed sweep fabric: a stdlib-HTTP
// coordinator/worker protocol that shards the experiment harness's
// simulations across worker processes while preserving the repository's
// central invariant — the merged stdout of a distributed sweep is
// byte-identical to a single-process run, regardless of worker count,
// join/leave order, or injected failures.
//
// Robustness is the design center:
//
//   - Work units are content-keyed (runner.ContentKey — the same SHA-256 the
//     disk cache and the campaign ledger address simulations by), so the
//     fleet dedups in flight: two submitters of the same point share one
//     unit, and a warm worker serves it from the shared persistent disk
//     cache without re-simulating.
//   - Units are dispatched under time-limited leases. Workers heartbeat to
//     extend them; a missed heartbeat or dead worker expires the lease and
//     the unit is re-dispatched with bounded, deterministically-jittered
//     backoff (generalizing the runner's single-process retry policy).
//   - Completions are accepted once. A slow-then-recovered worker's late
//     result either wins the race (and the re-dispatched copy becomes the
//     duplicate) or is discarded — a unit's result is recorded exactly once,
//     which the determinism of the simulator makes safe: both copies are
//     bit-identical.
//   - Results carry only simulator ground truth (the Activity counters); the
//     coordinator recomputes the power report locally, exactly like a disk
//     cache load, so a fleet result is indistinguishable from a local one.
//
// The coordinator serves one client, its own sweep, and embeds into the
// observability server: internal/obsserver mounts Handler() under /fabric/
// and surfaces FleetStatus in /status and the dashboard.
package fabric

import (
	"time"

	"power10sim/internal/telemetry"
)

// ProtocolVersion is the fabric wire-schema generation. It is embedded in
// every request payload and checked on both sides, so a version-skewed
// worker rejects units instead of misinterpreting them.
const ProtocolVersion = "p10fabric-v1"

// Worker-protocol endpoint paths, all rooted under the coordinator's HTTP
// surface (obsserver mounts them verbatim).
const (
	PathRegister   = "/fabric/register"
	PathDeregister = "/fabric/deregister"
	PathLease      = "/fabric/lease"
	PathHeartbeat  = "/fabric/heartbeat"
	PathComplete   = "/fabric/complete"
)

// Defaults for CoordinatorOptions.
const (
	DefaultLeaseTTL     = 10 * time.Second
	DefaultMaxAttempts  = 5
	DefaultRetryBackoff = 250 * time.Millisecond
)

// Unit is one leased work item: a content-keyed simulation request.
type Unit struct {
	// Key is the simulation's content key (runner.ContentKey).
	Key string `json:"key"`
	// Label is the human-readable "workload@config/smtN" identity.
	Label string `json:"label"`
	// Attempt is the 1-based dispatch attempt this lease represents.
	Attempt int `json:"attempt"`
	// Trace is the unit's distributed-tracing context: the trace ID minted at
	// enqueue (a prefix of the content key) with Parent set to this lease
	// hop's span ID, so worker-side telemetry joins the coordinator's span
	// chain without coordination.
	Trace telemetry.TraceContext `json:"trace"`
	// Payload is the encoded WireRequest (see codec.go).
	Payload []byte `json:"payload"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the worker's self-chosen identity (hostname-pid by default);
	// the coordinator uniquifies clashes.
	Name string `json:"name"`
	// Workers is the worker's local simulation parallelism (fleet-table
	// diagnostics only).
	Workers int `json:"workers"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity all later calls carry.
	WorkerID string `json:"worker_id"`
	// LeaseTTLSeconds is the lease duration; workers heartbeat at a fraction
	// of it.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds"`
	// Protocol echoes ProtocolVersion for skew detection.
	Protocol string `json:"protocol"`
	// CoordUnixMicro is the coordinator's wall clock (unix microseconds) at
	// response time — the server timestamp of an NTP-style exchange. The
	// worker brackets the call with its own clock and estimates its offset as
	// CoordUnixMicro - (t_send+t_recv)/2, refining it on every heartbeat.
	CoordUnixMicro int64 `json:"coord_unix_micro"`
}

// DeregisterRequest is a clean goodbye: the worker has completed (or
// abandoned) its leases and is draining.
type DeregisterRequest struct {
	WorkerID string `json:"worker_id"`
	// Snapshot is the worker's final telemetry snapshot, so counters from a
	// cleanly-drained worker survive in the federated fleet view after the
	// worker's own /metrics endpoint is gone.
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

// LeaseRequest asks for up to Max units, long-polling up to WaitSeconds when
// the queue is empty.
type LeaseRequest struct {
	WorkerID    string  `json:"worker_id"`
	Max         int     `json:"max"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// LeaseResponse carries the leased units (possibly none after a long-poll
// timeout). Closing tells the worker the coordinator is shutting down.
type LeaseResponse struct {
	Units   []Unit `json:"units"`
	Closing bool   `json:"closing,omitempty"`
}

// HeartbeatRequest extends the worker's leases on the listed unit keys. It
// doubles as the clock-sync carrier: the worker reports its current best
// offset estimate so the coordinator can translate worker-clock timestamps
// into its own time base when building the merged fleet trace.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Keys     []string `json:"keys"`
	// ClockOffsetMicros is the worker's estimate of (coordinator clock -
	// worker clock), from the minimum-RTT register/heartbeat exchange.
	ClockOffsetMicros int64 `json:"clock_offset_micros,omitempty"`
	// ClockRTTMicros is the round-trip time of the exchange that produced the
	// estimate — its error bound.
	ClockRTTMicros int64 `json:"clock_rtt_micros,omitempty"`
}

// HeartbeatResponse reports keys the worker no longer holds (expired and
// re-dispatched); the worker may abandon them mid-run.
type HeartbeatResponse struct {
	Expired []string `json:"expired,omitempty"`
	// CoordUnixMicro timestamps the response on the coordinator clock, the
	// per-heartbeat sample the worker's offset estimator consumes.
	CoordUnixMicro int64 `json:"coord_unix_micro"`
}

// CompleteRequest delivers finished unit results, piggybacking the worker's
// telemetry snapshot (for metrics federation) and its latest clock-offset
// estimate (so even a worker whose first batch finishes before its first
// heartbeat gets offset-corrected trace spans).
type CompleteRequest struct {
	WorkerID string       `json:"worker_id"`
	Results  []WireResult `json:"results"`
	// Snapshot is the worker's current telemetry snapshot; the coordinator
	// keeps the latest per worker and federates them on demand.
	Snapshot          *telemetry.Snapshot `json:"snapshot,omitempty"`
	ClockOffsetMicros int64               `json:"clock_offset_micros,omitempty"`
	ClockRTTMicros    int64               `json:"clock_rtt_micros,omitempty"`
}

// CompleteResponse accounts the delivery: Accepted results were recorded,
// Duplicates were discarded under the accept-once rule, Rejected failed
// validation (unknown key, corrupt payload).
type CompleteResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	Rejected   int `json:"rejected"`
}

// WorkerStatus is one worker's row in the fleet table.
type WorkerStatus struct {
	Name string `json:"name"`
	// State is "live", "draining", "drained", or "lost".
	State string `json:"state"`
	// Workers is the worker's local parallelism.
	Workers int `json:"workers"`
	// Leased is the number of units currently leased to it.
	Leased int `json:"leased"`
	// Completed / Failed count accepted results attributed to it.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// LastSeenSeconds is the age of its last RPC.
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	// ClockOffsetSeconds is the worker's reported clock offset relative to
	// the coordinator (coordinator - worker), zero until first reported.
	ClockOffsetSeconds float64 `json:"clock_offset_seconds,omitempty"`
}

// QueueStatus aggregates the unit ledger.
type QueueStatus struct {
	Pending    int    `json:"pending"`
	Leased     int    `json:"leased"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Requeues   uint64 `json:"requeues"`
	Duplicates uint64 `json:"duplicates"`
	Corrupt    uint64 `json:"corrupt_results"`
}

// FleetStatus is the coordinator's live view: the /status fabric block and
// the dashboard's fleet table render it.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	Queue   QueueStatus    `json:"queue"`
}
