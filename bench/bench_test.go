package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"power10sim/internal/runner"
	"power10sim/internal/sweep"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return &env{ctx: context.Background(), seed: 1, dir: t.TempDir(), golden: g}
}

func experimentsNamed(t *testing.T, names ...string) []sweep.Experiment {
	t.Helper()
	var out []sweep.Experiment
	for _, n := range names {
		for _, x := range sweep.Catalog() {
			if x.Name == n {
				out = append(out, x)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("catalog is missing one of %v", names)
	}
	return out
}

// TestCheapGoldens pins the cheapest committed outputs: two quick-catalog
// tables and one full long request.
func TestCheapGoldens(t *testing.T) {
	e := testEnv(t)
	j := &sweepJob{order: experimentsNamed(t, "fig5", "socket")}
	out, err := j.execute(e, e.freshDir("cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range j.order {
		if out.failed[x.Name] || out.digests[x.Name] != e.golden.Tables[x.Name] {
			t.Errorf("%s: failed=%v digest %s, golden %s", x.Name, out.failed[x.Name], out.digests[x.Name], e.golden.Tables[x.Name])
		}
	}

	const name = "intcompute@POWER10/smt2"
	set := []longReq{longCandidates()[name]}
	results, _, err := runLongSet(e, set, false, "test")
	if err != nil {
		t.Fatal(err)
	}
	checkFull(e, set, results)
	if e.failed != 0 {
		t.Errorf("%s: %v", name, e.failures)
	}
}

// TestTracedExecutorMatchesLocal checks that the traced executor, which
// runs the layers one at a time, returns the runner's local result bit for
// bit.
func TestTracedExecutorMatchesLocal(t *testing.T) {
	req := longCandidates()["interp@POWER9/smt2"].req
	local := runner.New(1).Do(req)
	if local.Err != nil {
		t.Fatal(local.Err)
	}
	traced, handled := newTracer().execute(context.Background(), req)
	if !handled || traced.Err != nil {
		t.Fatalf("executor handled=%v err=%v", handled, traced.Err)
	}
	if !reflect.DeepEqual(local.Activity, traced.Activity) {
		t.Errorf("Activity differs:\nlocal  %+v\ntraced %+v", *local.Activity, *traced.Activity)
	}
	if !reflect.DeepEqual(local.Report, traced.Report) {
		t.Errorf("Report differs:\nlocal  %+v\ntraced %+v", *local.Report, *traced.Report)
	}
}

// TestTracedSweepDigest checks that tracing changes no output: a traced
// fig5 sweep renders the same table as an untraced one.
func TestTracedSweepDigest(t *testing.T) {
	e := testEnv(t)
	j := &sweepJob{order: experimentsNamed(t, "fig5")}
	plain, err := j.execute(e, e.freshDir("cache"))
	if err != nil {
		t.Fatal(err)
	}
	e.tr = newTracer()
	traced, err := j.execute(e, e.freshDir("cache"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.digests["fig5"] != traced.digests["fig5"] {
		t.Errorf("traced fig5 digest %s, untraced %s", traced.digests["fig5"], plain.digests["fig5"])
	}
	if n := e.tr.sums["power.reports"]; n == 0 {
		t.Error("traced sweep executed no simulation through the executor")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code in
// step: the same workloads, and the same metric names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wls, workloadNames())
	}
	same := func(kind string, listed []metricSpec, reported map[string]metric) {
		var a, b []string
		for _, m := range listed {
			a = append(a, m.Name+" "+m.Unit)
		}
		for name, m := range reported {
			b = append(b, name+" "+m.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: BENCHMARK.json lists %v\ncode reports %v", kind, a, b)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics(1, 1))
	same("per_layer", spec.PerLayer, newTracer().layerMetrics(1, 1))
}

// TestQuartilesAndVerdict checks the -compare statistics against values
// Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesAndVerdict(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", q1, q3)
	}
	steady := []float64{10, 10.1, 10.2, 9.9, 9.8}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10.5, 10.6, 10.4, 10.5, 10.7}, "within bound"},
		{[]float64{12.5, 12.6, 12.4, 12.5, 12.7}, "regression"},
		{[]float64{8, 12, 10, 14, 6}, "unresolved"},
	} {
		if got := verdict(false, 0.1, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
