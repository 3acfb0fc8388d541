package pmgmt

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"power10sim/internal/mlfit"
	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// serialPath is the one-goroutine Target.Path the concurrent one replaced:
// it fits and scores each candidate in column order with MeanAbsPctError
// over the sample rows, keeping the first lowest error.
func serialPath(t *mlfit.Target, X [][]float64, y []float64, maxFeatures int, sel mlfit.Selection) mlfit.Path {
	var path mlfit.Path
	var chosen, cand []int
	used := make([]bool, len(X[0]))
	best := mlfit.Step{Error: math.Inf(1)}
	for len(chosen) < maxFeatures {
		step, pick := mlfit.Step{Error: math.Inf(1)}, -1
		for f := range used {
			if used[f] || (sel.Candidate != nil && !sel.Candidate(f)) {
				continue
			}
			cand = append(append(cand[:0], chosen...), f)
			m, err := t.Fit(cand, sel.Options)
			if err != nil || (sel.Strict && len(m.Features) != len(cand)) {
				continue
			}
			if e := mlfit.MeanAbsPctError(m, X, y); e < step.Error {
				step, pick = mlfit.Step{Model: m, Error: e}, f
			}
		}
		if pick < 0 {
			break
		}
		chosen = append(chosen, pick)
		used[pick] = true
		if step.Error < best.Error {
			best = step
		}
		path = append(path, best)
	}
	return path
}

// quickModelCorpus collects the corpus the quick sweep's Figs. 11, 12 and
// 15 share: the SPECint suite, the MMA stressmark and active-idle at
// 4,000-cycle epochs.
func quickModelCorpus(t *testing.T) *powermodel.Dataset {
	t.Helper()
	ws := append(workloads.SPECintSuite(), workloads.Stressmark(true), workloads.ActiveIdle())
	ds, err := powermodel.CollectJobs(uarch.POWER10(), ws, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPathMatchesSerialReference holds the concurrent Target.Path to
// serialPath on the quick model corpus, path, models and errors bit for
// bit, at GOMAXPROCS 1 and 4: Fig. 11's four rule sets, Fig. 12's 16-input
// top-down path and three of its bottom-up components, and the hardware
// proxy's strict non-negative rule.
func TestPathMatchesSerialReference(t *testing.T) {
	ds := quickModelCorpus(t)
	g, err := ds.Gram()
	if err != nil {
		t.Fatal(err)
	}
	X, active := ds.X(), ds.ActiveY()
	componentY := func(name string) []float64 {
		y := make([]float64, len(ds.Samples))
		for i, s := range ds.Samples {
			for ci, n := range power.ComponentNames {
				if n == name {
					y[i] = s.Components[ci]
				}
			}
		}
		return y
	}
	type pathCase struct {
		name string
		y    []float64
		max  int
		sel  mlfit.Selection
	}
	cases := []pathCase{
		{"fig11/ols", active, 24, mlfit.Selection{Options: mlfit.Options{Intercept: true}}},
		{"fig11/ridge", active, 24, mlfit.Selection{Options: mlfit.Options{Intercept: true, Ridge: 0.5}}},
		{"fig11/non-negative", active, 24, mlfit.Selection{Options: mlfit.Options{Intercept: true, NonNegative: true}}},
		{"fig11/no-intercept", active, 24, mlfit.Selection{}},
		{"fig12/top-down", active, 16, mlfit.Selection{Options: mlfit.Options{Intercept: true}}},
		{"proxy", active, 24, proxySelection(ds)},
	}
	for _, name := range []string{"lsu-l1d-array", "fxu-alu", "mma-grid"} {
		cases = append(cases, pathCase{"fig12/" + name, componentY(name), 3,
			mlfit.Selection{Options: mlfit.Options{Intercept: true}}})
	}
	want := make([]mlfit.Path, len(cases))
	for i, c := range cases {
		want[i] = serialPath(g.Target(c.y), X, c.y, c.max, c.sel)
		if len(want[i]) == 0 {
			t.Fatalf("%s: the reference path is empty", c.name)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			if got := g.Target(c.y).Path(c.max, c.sel); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s at GOMAXPROCS %d:\n got %v\nwant %v", c.name, procs, got, want[i])
			}
		}
	}
}
