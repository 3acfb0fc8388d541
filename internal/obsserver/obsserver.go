// Package obsserver is the embedded observability server any long-running
// command starts with `-serve addr`: a stdlib-only HTTP surface exposing the
// harness's live state while a sweep or campaign runs.
//
// Endpoints:
//
//	/            plain-text index of the endpoints below
//	/metrics     Prometheus text exposition rendered from the telemetry
//	             registry snapshot (live, not end-of-run)
//	/healthz     liveness: 200 "ok" while the process serves
//	/readyz      readiness: 503 until the sweep plan is built, then 200
//	/status      live JSON: per-experiment progress, simulation counts,
//	             runner stats, failure count, event-bus accounting, build
//	             info, runlog accounting
//	/events      Server-Sent Events stream of progress events (one SSE
//	             event per bus event, id = bus sequence number; reconnects
//	             presenting Last-Event-ID are backfilled from the bus's
//	             replay ring)
//	/runs        recent campaign-ledger records as JSON (when a runlog is
//	             attached)
//	/dashboard   zero-dependency live HTML dashboard over /status, /events
//	             and /runs
//	/debug/pprof/*  the standard runtime profiles
//
// The server renders /status and /events from the same progress.Bus the
// console renderer subscribes to, so every surface agrees on what happened.
// It is deliberately read-only: nothing served here mutates the sweep.
package obsserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"power10sim/internal/fabric"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// Options configures the surfaces a command wires into the server. Every
// field may be nil/zero: the corresponding endpoint then serves an empty
// (but well-formed) view.
type Options struct {
	// Command names the serving process in /status (e.g. "p10bench").
	Command string
	// Registry backs /metrics.
	Registry *telemetry.Registry
	// Bus feeds /events and the /status progress aggregation.
	Bus *progress.Bus
	// Stats, when non-nil, is polled for the runner block of /status.
	Stats func() runner.Stats
	// Failures, when non-nil, is polled for the failure count in /status.
	Failures func() int
	// RunLog, when non-nil, backs /runs and the runlog block of /status.
	RunLog *runlog.Ledger
	// Fleet, when non-nil, is polled for the fabric block of /status and the
	// dashboard's worker-fleet table (the coordinator wires this to
	// fabric.Coordinator.Fleet).
	Fleet func() fabric.FleetStatus
	// Fabric, when non-nil, is mounted under /fabric/ — the coordinator's
	// worker protocol and submit/poll API share the observability listener.
	Fabric http.Handler
	// FleetTrace, when non-nil, backs /fleet/trace: it renders the merged,
	// clock-corrected Chrome trace of every fleet work unit (the coordinator
	// wires this to fabric.Coordinator.WriteTrace). Nil serves 404.
	FleetTrace func(io.Writer) error
	// FederatedSnapshot, when non-nil, replaces the Registry snapshot behind
	// /metrics with a fleet-wide federated one (coordinator-local series
	// unlabeled, per-worker series labeled worker=<name>, cross-worker
	// aggregates labeled worker="fleet").
	FederatedSnapshot func() telemetry.Snapshot
	// SSEWriteTimeout bounds each /events write; a client that cannot accept
	// an event frame within it is disconnected (and counted in
	// obsserver_sse_dropped_clients_total) instead of pinning a handler
	// goroutine and its subscription for the life of the sweep. Zero means
	// the 10s default.
	SSEWriteTimeout time.Duration
}

// defaultSSEWriteTimeout is generous for any live reader — the frames are a
// few hundred bytes — while still unpinning handlers from stalled ones.
const defaultSSEWriteTimeout = 10 * time.Second

// Server is one running observability server. Construct with Start.
type Server struct {
	opts    Options
	tracker *progress.Tracker
	start   time.Time
	build   buildInfo
	ready   atomic.Bool
	closing chan struct{}
	httpSrv *http.Server
	ln      net.Listener
	// sseDropped counts /events clients disconnected by the slow-consumer
	// write deadline (obsserver_sse_dropped_clients_total).
	sseDropped *telemetry.Counter
}

// Start listens on addr (e.g. ":9090" or "127.0.0.1:0" for an ephemeral
// port) and serves in a background goroutine. The caller flips readiness
// with SetReady once its sweep plan is built and must Shutdown before exit.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsserver: listen %s: %w", addr, err)
	}
	if opts.SSEWriteTimeout <= 0 {
		opts.SSEWriteTimeout = defaultSSEWriteTimeout
	}
	s := &Server{
		opts:    opts,
		tracker: progress.NewTracker(opts.Bus),
		start:   time.Now(),
		build:   readBuildInfo(),
		closing: make(chan struct{}),
		ln:      ln,
		// obsserver_sse_dropped_clients_total: /events clients disconnected
		// for failing the per-write deadline.
		sseDropped: opts.Registry.Counter("obsserver_sse_dropped_clients_total"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/fleet/trace", s.handleFleetTrace)
	mux.HandleFunc("/dashboard", s.handleDashboard)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if opts.Fabric != nil {
		mux.Handle("/fabric/", opts.Fabric)
	}
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return s, nil
}

// Addr returns the actual listen address (resolves ":0" requests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// SetReady flips the /readyz state; commands call SetReady(true) once the
// sweep plan is built and simulations are about to start. Safe on nil, so
// call sites need not gate on whether -serve was given.
func (s *Server) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// Shutdown stops accepting connections, terminates open SSE streams, and
// waits (bounded by ctx) for in-flight handlers. Safe on nil.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	close(s.closing)
	err := s.httpSrv.Shutdown(ctx)
	s.tracker.Stop()
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "power10sim observability server (%s)\n\n", s.opts.Command)
	fmt.Fprintln(w, "/metrics        Prometheus exposition of the telemetry registry")
	fmt.Fprintln(w, "/healthz        liveness")
	fmt.Fprintln(w, "/readyz         readiness (sweep plan built)")
	fmt.Fprintln(w, "/status         live sweep progress JSON")
	fmt.Fprintln(w, "/events         SSE stream of progress events")
	fmt.Fprintln(w, "/runs           recent campaign-ledger records (JSON)")
	fmt.Fprintln(w, "/fleet/trace    merged fleet Chrome trace (coordinator only)")
	fmt.Fprintln(w, "/dashboard      live HTML dashboard")
	fmt.Fprintln(w, "/debug/pprof/   runtime profiles")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Snapshot-then-render is race-safe against the live sweep; a nil
	// registry renders an empty exposition. A coordinator wires
	// FederatedSnapshot so one scrape here shows the whole fleet.
	if s.opts.FederatedSnapshot != nil {
		telemetry.WritePrometheus(w, s.opts.FederatedSnapshot())
		return
	}
	s.opts.Registry.WritePrometheus(w)
}

// handleFleetTrace serves the coordinator's merged fleet trace. The trace is
// rendered into memory first so a build error can still answer with a clean
// 500 instead of a half-written body.
func (s *Server) handleFleetTrace(w http.ResponseWriter, _ *http.Request) {
	if s.opts.FleetTrace == nil {
		http.Error(w, "no fleet trace attached (not a coordinator)", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := s.opts.FleetTrace(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
		return
	}
	fmt.Fprintln(w, "ready")
}

// runnerStats is the /status rendering of runner.Stats, with the duration
// flattened to seconds for curl-side readability.
type runnerStats struct {
	Hits             uint64  `json:"cache_hits"`
	Misses           uint64  `json:"unique_runs"`
	Retries          uint64  `json:"retries"`
	Panics           uint64  `json:"panics_recovered"`
	Timeouts         uint64  `json:"watchdog_timeouts"`
	Cancels          uint64  `json:"cancels"`
	Uncached         uint64  `json:"uncached_errors"`
	Remote           uint64  `json:"remote_runs"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	PeakInFlight     int     `json:"peak_in_flight"`
	DiskHits         uint64  `json:"disk_hits"`
	DiskMisses       uint64  `json:"disk_misses"`
	DiskCorrupt      uint64  `json:"disk_corrupt"`
	DiskReadBytes    uint64  `json:"disk_read_bytes"`
	DiskWrittenBytes uint64  `json:"disk_written_bytes"`
}

// buildInfo is the /status rendering of the binary's embedded build
// metadata, resolved once at Start.
type buildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// readBuildInfo extracts the fields /status reports from the runtime's
// embedded module info (absent under some test builds, hence best-effort).
func readBuildInfo() buildInfo {
	var b buildInfo
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// runlogStatus is the /status accounting block for an attached campaign
// ledger.
type runlogStatus struct {
	Dir             string `json:"dir"`
	RecordsAppended uint64 `json:"records_appended"`
	BytesAppended   uint64 `json:"bytes_appended"`
}

// statusPayload is the /status JSON document; DESIGN.md documents the shape.
type statusPayload struct {
	Command         string                      `json:"command,omitempty"`
	Build           buildInfo                   `json:"build"`
	UptimeSeconds   float64                     `json:"uptime_seconds"`
	Ready           bool                        `json:"ready"`
	SweepDone       bool                        `json:"sweep_done"`
	Experiments     []progress.ExperimentStatus `json:"experiments"`
	Sims            progress.SimCounts          `json:"sims"`
	Runner          *runnerStats                `json:"runner,omitempty"`
	RunLog          *runlogStatus               `json:"runlog,omitempty"`
	Fabric          *fabric.FleetStatus         `json:"fabric,omitempty"`
	Failures        int                         `json:"failures"`
	EventsPublished uint64                      `json:"events_published"`
	EventsDropped   uint64                      `json:"events_dropped"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	exps, sims, sweepDone := s.tracker.Status()
	if exps == nil {
		exps = []progress.ExperimentStatus{}
	}
	p := statusPayload{
		Command:         s.opts.Command,
		Build:           s.build,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Ready:           s.ready.Load(),
		SweepDone:       sweepDone,
		Experiments:     exps,
		Sims:            sims,
		EventsPublished: s.opts.Bus.Published(),
		EventsDropped:   s.opts.Bus.Dropped(),
	}
	if s.opts.Stats != nil {
		st := s.opts.Stats()
		p.Runner = &runnerStats{
			Hits: st.Hits, Misses: st.Misses, Retries: st.Retries,
			Panics: st.Panics, Timeouts: st.Timeouts, Cancels: st.Cancels,
			Uncached: st.Uncached, Remote: st.Remote,
			QueueWaitSeconds: st.QueueWait.Seconds(),
			PeakInFlight:     st.PeakInFlight,
			DiskHits:         st.DiskHits, DiskMisses: st.DiskMisses,
			DiskCorrupt:   st.DiskCorrupt,
			DiskReadBytes: st.DiskReadBytes, DiskWrittenBytes: st.DiskWrittenBytes,
		}
	}
	if s.opts.Fleet != nil {
		fs := s.opts.Fleet()
		if fs.Workers == nil {
			fs.Workers = []fabric.WorkerStatus{}
		}
		p.Fabric = &fs
	}
	if s.opts.Failures != nil {
		p.Failures = s.opts.Failures()
	}
	if l := s.opts.RunLog; l != nil {
		recs, bytes := l.Appended()
		p.RunLog = &runlogStatus{
			Dir:             l.Dir(),
			RecordsAppended: recs,
			BytesAppended:   bytes,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Bus == nil {
		http.Error(w, "no progress bus attached", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// The subscription buffer absorbs bursts (a whole quick experiment can
	// finish in well under a second); a client that cannot drain 4096
	// buffered events loses the overflow, visible in /status events_dropped.
	// Subscribe BEFORE reading the replay ring: any event published between
	// the two lands in the buffer, and the live loop below drops the overlap
	// by sequence number, so a reconnect misses nothing the ring held.
	sub := s.opts.Bus.Subscribe(4096)
	defer sub.Close()
	// Slow-consumer guard: every frame write runs under a deadline via the
	// ResponseController. The subscription buffer already protects
	// *publishers* from a slow client; the deadline protects the *server* —
	// without it a reader that stops draining its socket (but keeps the
	// connection open) pins this handler goroutine, its subscription, and a
	// TCP send buffer for the rest of the sweep. On a missed deadline the
	// client is disconnected and counted.
	rc := http.NewResponseController(w)
	write := func(ev progress.Event) bool {
		rc.SetWriteDeadline(time.Now().Add(s.opts.SSEWriteTimeout))
		if !writeSSE(w, ev) {
			s.sseDropped.Inc()
			return false
		}
		return true
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// A reconnecting EventSource presents the last id it saw; backfill the
	// gap from the bus replay ring before streaming live. Browsers only send
	// the Last-Event-ID header on their *automatic* reconnects — a client
	// that reconnects by constructing a fresh EventSource (the dashboard's
	// backoff loop) passes the same value as ?last-event-id= instead.
	var last uint64
	lid := r.Header.Get("Last-Event-ID")
	if lid == "" {
		lid = r.URL.Query().Get("last-event-id")
	}
	if lid != "" {
		if seq, err := strconv.ParseUint(lid, 10, 64); err == nil {
			for _, ev := range s.opts.Bus.ReplaySince(seq) {
				if !write(ev) {
					return
				}
				last = ev.Seq
			}
			if last < seq {
				last = seq
			}
			fl.Flush()
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if ev.Seq <= last {
				continue // already sent during replay
			}
			if !write(ev) {
				return
			}
			last = ev.Seq
			fl.Flush()
		}
	}
}

// writeSSE renders one bus event as an SSE frame; id carries the bus
// sequence number so clients can detect gaps and resume with Last-Event-ID.
func writeSSE(w http.ResponseWriter, ev progress.Event) bool {
	b, err := json.Marshal(ev)
	if err != nil {
		return true // skip the unmarshalable event, keep the stream
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, b)
	return err == nil
}

// handleRuns serves the most recent campaign-ledger records, newest-last, as
// the dashboard's run-history feed. ?n= bounds the count (default 50).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	type runsPayload struct {
		Enabled         bool            `json:"enabled"`
		RecordsAppended uint64          `json:"records_appended"`
		BytesAppended   uint64          `json:"bytes_appended"`
		Records         []runlog.Record `json:"records"`
	}
	p := runsPayload{Records: []runlog.Record{}}
	if l := s.opts.RunLog; l != nil {
		n := 50
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		if n > 1000 {
			n = 1000
		}
		p.Enabled = true
		p.RecordsAppended, p.BytesAppended = l.Appended()
		if recs := l.Recent(n); recs != nil {
			p.Records = recs
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}
