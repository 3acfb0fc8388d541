package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"power10sim/internal/flightrec"
	"power10sim/internal/obsserver"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// Help declares which shared observability flags a command exposes, with the
// command's own help text for each. An empty entry leaves that flag
// unregistered and its Flags field at the zero value.
type Help struct {
	Metrics, Trace, FlightRec, Serve, CacheDir, RunLog, RunLogSeries, Jobs string
}

// Flags holds the parsed values of the shared observability flags.
type Flags struct {
	Metrics, Trace, FlightRec, Serve, CacheDir, RunLog string
	RunLogSeries, Jobs                                 int
	pool                                               bool
}

// Register registers the flags h declares on flag.CommandLine; call it
// before flag.Parse. A command that exposes -jobs gets a runner pool from
// Start.
func Register(h Help) *Flags {
	f := &Flags{pool: h.Jobs != ""}
	for _, s := range []struct {
		p          *string
		name, help string
	}{
		{&f.Metrics, "metrics", h.Metrics}, {&f.Trace, "trace", h.Trace},
		{&f.FlightRec, "flightrec", h.FlightRec}, {&f.Serve, "serve", h.Serve},
		{&f.CacheDir, "cachedir", h.CacheDir}, {&f.RunLog, "runlog", h.RunLog},
	} {
		if s.help != "" {
			flag.StringVar(s.p, s.name, "", s.help)
		}
	}
	if h.RunLogSeries != "" {
		flag.IntVar(&f.RunLogSeries, "runlog-series", 0, h.RunLogSeries)
	}
	if h.Jobs != "" {
		flag.IntVar(&f.Jobs, "jobs", 0, h.Jobs)
	}
	return f
}

// Check validates the parsed flags, exiting 2 on a usage error: output files
// need an existing parent directory, -jobs and -runlog-series must not be
// negative, and -runlog-series needs -runlog.
func (f *Flags) Check() {
	if f.Jobs < 0 {
		Usagef("-jobs %d: must be >= 0", f.Jobs)
	}
	if f.RunLogSeries < 0 {
		Usagef("-runlog-series %d: must be >= 0", f.RunLogSeries)
	}
	if f.RunLogSeries != 0 && f.RunLog == "" {
		Usagef("-runlog-series needs -runlog")
	}
	for _, o := range [][2]string{{"metrics", f.Metrics}, {"trace", f.Trace}, {"flightrec", f.FlightRec}} {
		if err := CheckOutputPath(o[0], o[1]); err != nil {
			Usagef("%v", err)
		}
	}
}

// Options configures Start.
type Options struct {
	// Command names the process in the ledger, flight record and /status.
	Command string
	// Registry keeps a live metrics registry even without -metrics or
	// -serve (a fabric process is always scraped or federated).
	Registry bool
	// ExternalTrace means the command sets Harness.Trace to its own trace
	// writer, so Start keeps no local tracer.
	ExternalTrace bool
}

// Harness is the observability plumbing shared by the sweep and simulation
// commands: the drain context, registry, tracer, progress bus, runner pool,
// campaign ledger, flight recorder and server, and one ordered shutdown.
// Fields for groups a command did not enable, or flags left unset, are nil;
// every consumer treats nil as a no-op.
type Harness struct {
	// Ctx is canceled by SIGINT or SIGTERM: the cooperative drain.
	Ctx    context.Context
	Reg    *telemetry.Registry
	Tr     *telemetry.Tracer
	Bus    *progress.Bus
	Pool   *runner.Runner
	Led    *runlog.Ledger
	Rec    *flightrec.Recorder
	Server *obsserver.Server

	// Metrics and Trace write the -metrics and -trace artifacts; they
	// default to the registry snapshot and the tracer. Set before Ready.
	Metrics, Trace func(io.Writer) error
	// Quiesce, when set, runs in Close after the artifacts are written and
	// before the ledger closes.
	Quiesce func()

	flags   *Flags
	command string
	stop    context.CancelFunc

	mu     sync.Mutex // serializes the drain flush against Close
	closed bool
}

// Start builds the harness from the parsed flags. A cache or ledger
// directory that cannot be opened is a usage error (exit 2).
func Start(f *Flags, o Options) *Harness {
	h := &Harness{flags: f, command: o.Command, Bus: progress.NewBus()}
	h.Ctx, h.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.Metrics != "" || f.Serve != "" || o.Registry {
		h.Reg = telemetry.NewRegistry()
	}
	if f.Trace != "" && !o.ExternalTrace {
		h.Tr = telemetry.NewTracer()
	}
	h.Metrics, h.Trace = h.Reg.WriteJSON, h.Tr.WriteJSON
	if f.pool {
		h.Pool = runner.New(f.Jobs)
		h.Pool.Instrument(h.Reg, h.Tr)
		h.Pool.SetContext(h.Ctx)
		h.Pool.SetBus(h.Bus)
		if err := h.Pool.SetCacheDir(f.CacheDir); err != nil {
			Usagef("%v", err)
		}
	}
	if f.RunLog != "" {
		led, err := runlog.Open(f.RunLog, runlog.Options{Command: o.Command, SeriesFrames: f.RunLogSeries})
		if err != nil {
			Usagef("%v", err)
		}
		led.Instrument(h.Reg)
		if h.Pool != nil {
			h.Pool.SetRunLog(led)
		}
		h.Led = led
	}
	if f.FlightRec != "" {
		h.Rec = flightrec.New(flightrec.Options{Command: o.Command, Bus: h.Bus,
			Registry: h.Reg, DumpPath: f.FlightRec})
		h.Rec.ArmSIGQUIT(nil)
	}
	return h
}

// Serve starts the observability server on addr (a no-op when addr is
// empty), filling o with the harness's command, registry, bus, ledger and
// pool stats. A listen failure exits 1.
func (h *Harness) Serve(addr string, o obsserver.Options) {
	if addr == "" {
		return
	}
	o.Command, o.Registry, o.Bus, o.RunLog = h.command, h.Reg, h.Bus, h.Led
	if h.Pool != nil {
		o.Stats = h.Pool.Stats
	}
	s, err := obsserver.Start(addr, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "obsserver: listening on %s\n", s.URL())
	h.Server = s
}

// Ready marks the start of the real work: /readyz turns ready and the drain
// flush is armed. From the moment Ctx is canceled, the flush writes the
// -metrics and -trace artifacts and a "drain" flight-recorder dump, so even
// a drain that then wedges leaves a record. Close's end-of-run writes
// replace them; every write is atomic.
func (h *Harness) Ready() {
	h.Server.SetReady(true)
	go func() {
		<-h.Ctx.Done()
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return
		}
		h.Rec.Note("drain signal received")
		_ = h.Rec.Dump("drain")
		h.writeArtifacts(false)
	}()
}

// writeArtifacts writes -metrics and -trace, reporting each on stderr when
// report is set; it returns 1 if any write failed.
func (h *Harness) writeArtifacts(report bool) int {
	exit := 0
	for _, a := range []struct {
		name, path string
		write      func(io.Writer) error
	}{{"metrics", h.flags.Metrics, h.Metrics}, {"trace", h.flags.Trace, h.Trace}} {
		if a.path == "" {
			continue
		}
		if err := telemetry.WriteFileAtomic(a.path, a.write); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.name, err)
			exit = 1
		} else if report {
			fmt.Fprintf(os.Stderr, "%s: wrote %s\n", a.name, a.path)
		}
	}
	return exit
}

// Close is the ordered shutdown, run once at the end of main:
//
//  1. write -metrics and -trace, then the end-of-run flight-recorder dump;
//  2. print the persistent-cache traffic line;
//  3. run Quiesce, close the ledger and print its summary;
//  4. shut the server down, waiting at most 2s;
//  5. close the bus, ending every subscriber's stream.
//
// It returns the process exit status: exit, raised to 1 if an artifact
// write or the ledger close failed.
func (h *Harness) Close(exit int) int {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	f := h.flags
	exit = max(exit, h.writeArtifacts(true))
	if f.FlightRec != "" {
		if err := h.Rec.DumpFile(f.FlightRec, "end of run"); err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %v\n", err)
			exit = 1
		} else {
			fmt.Fprintf(os.Stderr, "flightrec: wrote %s\n", f.FlightRec)
		}
	}
	if f.CacheDir != "" && h.Pool != nil {
		st := h.Pool.Stats()
		fmt.Fprintf(os.Stderr, "diskcache: %d hits, %d misses, %d B read, %d B written (%s)\n",
			st.DiskHits, st.DiskMisses, st.DiskReadBytes, st.DiskWrittenBytes, f.CacheDir)
	}
	if h.Quiesce != nil {
		h.Quiesce()
	}
	if h.Led != nil {
		recs, n := h.Led.Appended()
		if err := h.Led.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "runlog: %v\n", err)
			exit = 1
		}
		line := fmt.Sprintf("runlog: %d records (%d B)", recs, n)
		if f.RunLogSeries != 0 {
			line += fmt.Sprintf(", %d series", h.Led.SeriesAppended())
		}
		fmt.Fprintf(os.Stderr, "%s appended under %s\n", line, f.RunLog)
	}
	if h.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		h.Server.Shutdown(ctx)
		cancel()
	}
	h.Bus.Close()
	h.stop()
	return exit
}
