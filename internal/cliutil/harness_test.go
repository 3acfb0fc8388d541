package cliutil

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"power10sim/internal/flightrec"
	"power10sim/internal/obsserver"
	"power10sim/internal/runlog"
)

// parse registers h on a fresh flag.CommandLine and parses args into it.
func parse(t *testing.T, h Help, args ...string) *Flags {
	t.Helper()
	old := flag.CommandLine
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	t.Cleanup(func() { flag.CommandLine = old })
	f := Register(h)
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestDrainFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics, dump := filepath.Join(dir, "m.json"), filepath.Join(dir, "f.json")
	f := parse(t, Help{Metrics: "m", FlightRec: "f"}, "-metrics", metrics, "-flightrec", dump)
	h := Start(f, Options{Command: "test"})
	h.Reg.Counter("drained_total").Inc()
	h.Ready()
	h.stop() // what SIGINT does: cancel Ctx
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(metrics); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain wrote no metrics snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var d flightrec.Dump
	readJSON(t, dump, &d)
	if d.Reason != "drain" {
		t.Errorf("dump reason %q, want drain", d.Reason)
	}
	var snap struct{ Counters []struct{ Name string } }
	readJSON(t, metrics, &snap)
	if len(snap.Counters) == 0 || snap.Counters[0].Name != "drained_total" {
		t.Errorf("drain snapshot counters = %+v", snap.Counters)
	}
	if code := h.Close(0); code != 0 {
		t.Errorf("Close = %d, want 0", code)
	}
	readJSON(t, dump, &d)
	if d.Reason != "end of run" {
		t.Errorf("after Close, dump reason %q, want end of run", d.Reason)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestCloseExitStatus(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	args := []string{"-metrics", metrics, "-trace", trace}
	h := Start(parse(t, Help{Metrics: "m", Trace: "t"}, args...), Options{})
	if code := h.Close(0); code != 0 {
		t.Errorf("clean Close = %d, want 0", code)
	}
	for _, p := range []string{metrics, trace} {
		var v map[string]any
		readJSON(t, p, &v)
	}

	h = Start(parse(t, Help{Metrics: "m", Trace: "t"}, args...), Options{})
	h.Trace = func(io.Writer) error { return errors.New("disk full") }
	if code := h.Close(0); code != 1 {
		t.Errorf("Close after a failed trace write = %d, want 1", code)
	}
	h = Start(parse(t, Help{Metrics: "m"}, "-metrics", filepath.Join(dir, "gone", "m.json")), Options{})
	if code := h.Close(0); code != 1 {
		t.Errorf("Close after a failed metrics write = %d, want 1", code)
	}
	h = Start(parse(t, Help{Metrics: "m"}, "-metrics", metrics), Options{})
	if code := h.Close(3); code != 3 {
		t.Errorf("Close(3) = %d, want the caller's status kept", code)
	}
}

// TestCloseClosesLedgerBeforeServer holds an /events stream open across
// Close: the stream ends when the server shuts down, and by then the ledger
// must already be closed (an append fails).
func TestCloseClosesLedgerBeforeServer(t *testing.T) {
	f := parse(t, Help{RunLog: "r", Serve: "s"}, "-runlog", t.TempDir(), "-serve", "127.0.0.1:0")
	h := Start(f, Options{Command: "test"})
	h.Serve(f.Serve, obsserver.Options{})
	resp, err := http.Get(h.Server.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	appendErr := make(chan error, 1)
	go func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		appendErr <- h.Led.Append(runlog.Record{Config: "POWER10", Workload: "daxpy"})
	}()
	if code := h.Close(0); code != 0 {
		t.Errorf("Close = %d, want 0", code)
	}
	select {
	case err := <-appendErr:
		if err == nil {
			t.Error("ledger still open when the server shut down")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/events stream did not end at Close")
	}
}

func TestUnsetGroupsAreNoOps(t *testing.T) {
	f := parse(t, Help{})
	n := 0
	flag.CommandLine.VisitAll(func(*flag.Flag) { n++ })
	if n != 0 {
		t.Errorf("empty Help registered %d flags", n)
	}
	h := Start(f, Options{})
	if h.Reg != nil || h.Tr != nil || h.Pool != nil || h.Led != nil || h.Rec != nil {
		t.Errorf("no groups, yet Start built %+v", h)
	}
	h.Serve(f.Serve, obsserver.Options{})
	h.Ready()
	if code := h.Close(0); code != 0 {
		t.Errorf("Close = %d, want 0", code)
	}

	// Every group registered but left unset: only the pool (which -jobs
	// sizes) exists.
	f = parse(t, Help{Metrics: "m", Trace: "t", FlightRec: "f", Serve: "s",
		CacheDir: "c", RunLog: "r", RunLogSeries: "n", Jobs: "j"})
	h = Start(f, Options{})
	if h.Pool == nil || h.Reg != nil || h.Tr != nil || h.Led != nil || h.Rec != nil || h.Server != nil {
		t.Errorf("unset flags, yet Start built %+v", h)
	}
	h.Ready()
	if code := h.Close(0); code != 0 {
		t.Errorf("Close = %d, want 0", code)
	}
}
