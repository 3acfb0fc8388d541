package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// runValues holds every value a file of runs reported: workload -> metric
// -> one value per run.
type runValues map[string]map[string][]float64

// readRuns parses a file of concatenated benchmark stdout. Each result line
// belongs to the workload named by the info line printed before it.
func readRuns(path string) (runValues, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runValues{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec struct {
			Workload string            `json:"workload"`
			Metrics  map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch {
		case rec.Workload != "":
			workload = rec.Workload
		case rec.Metrics != nil && workload != "":
			if out[workload] == nil {
				out[workload] = map[string][]float64{}
			}
			for name, m := range rec.Metrics {
				out[workload][name] = append(out[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for each workload and metric, both sides' medians
// and quartiles, and for end-to-end metrics a verdict under their bounds.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range a {
		if b[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-12s %-28s %3s %-32s %3s %-32s %8s  %s\n",
		"workload", "metric", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]", "change", "verdict")
	counts := map[string]int{}
	row := func(wl, name string, va, vb []float64, v string) {
		ma, mb := median(va), median(vb)
		change := 0.0
		if ma != 0 {
			change = 100 * (mb - ma) / ma
		}
		fmt.Fprintf(w, "%-12s %-28s %3d %-32s %3d %-32s %+7.2f%%  %s\n",
			wl, name, len(va), summarize(va), len(vb), summarize(vb), change, v)
	}
	for _, wl := range wls {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m.Better == "higher", m.Bound, va, vb)
			counts[v]++
			row(wl, m.Name, va, vb, fmt.Sprintf("%s (bound %.0f%%)", v, 100*m.Bound))
		}
		for _, m := range spec.PerLayer {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row(wl, m.Name, va, vb, "no bound")
		}
	}
	fmt.Fprintf(w, "end-to-end: %d within bound, %d regression, %d unresolved\n",
		counts["within bound"], counts["regression"], counts["unresolved"])
	return nil
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

// verdict judges B against A for one metric. A metric whose relative
// quartile spread on either side is wider than its bound is unresolved,
// unless every run of B reads better than every run of A; otherwise it is a
// regression when B's median is worse than A's by more than the bound.
func verdict(higherBetter bool, bound float64, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(higherBetter, a, b) {
			return "within bound"
		}
		return "unresolved"
	}
	if worse > bound {
		return "regression"
	}
	return "within bound"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func allBetter(higherBetter bool, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (its default "exclusive" method), so spreads read the same
// as in any script that uses it. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
