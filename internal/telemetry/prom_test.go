package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", L("exp", "fig5")).Add(3)
	r.Counter("runs_total", L("exp", "tableI")).Add(1)
	r.Counter("hits_total").Add(7)
	r.Gauge("workers_busy").Set(2)
	r.Gauge("ipc", L("workload", "daxpy")).Set(1.25)
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE hits_total counter
hits_total 7
# TYPE runs_total counter
runs_total{exp="fig5"} 3
runs_total{exp="tableI"} 1
# TYPE ipc gauge
ipc{workload="daxpy"} 1.25
# TYPE workers_busy gauge
workers_busy 2
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="10"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 100.55
latency_seconds_count 3
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("odd_total", L("k", "a\\b\"c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `odd_total{k="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition %q missing escaped sample %q", buf.String(), want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry rendered %q", buf.String())
	}
}

func TestWritePrometheusCumulativeBucketsMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", ExpBuckets(0.001, 4, 10))
	for _, v := range []float64{0.0001, 0.01, 0.01, 3, 1e6} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var infSeen bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "h_seconds_bucket") {
			continue
		}
		var v uint64
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		for _, ch := range fields[1] {
			v = v*10 + uint64(ch-'0')
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if v != 5 {
				t.Errorf("+Inf bucket = %d, want 5", v)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	r := NewRegistry()
	r.Counter("a_total").Inc()
	if err := WriteFileAtomic(path, r.WriteJSON); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new state: readers must see old-complete or
	// new-complete, and afterwards the new content.
	r.Counter("a_total").Inc()
	if err := WriteFileAtomic(path, r.WriteJSON); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"value": 2`) {
		t.Errorf("rewritten file stale:\n%s", b)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicTracer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	tr := NewTracerWithClock(func() int64 { return 0 })
	tr.Instant("x", "test")
	if err := WriteFileAtomic(path, tr.WriteJSON); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "traceEvents") {
		t.Errorf("trace file malformed:\n%s", b)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicFailureLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old-complete"), 0o644); err != nil {
		t.Fatal(err)
	}
	errBoom := os.ErrInvalid
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return errBoom
	})
	if err != errBoom {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "old-complete" {
		t.Errorf("failed write clobbered the old file: %q", b)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	r := NewRegistry()
	if err := WriteFileAtomic(path, r.WriteJSON); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".p10-atomic-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}
