package mlfit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func synthData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 3 + 2*X[i][0] + 5*X[i][2] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestOLSRecoversCoefficients(t *testing.T) {
	X, y := synthData(500, 0, 1)
	m, err := Fit(X, y, Options{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 5, 0, 0}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 1e-5 {
			t.Errorf("coef[%d] = %v, want %v", i, m.Coef[i], w)
		}
	}
	if math.Abs(m.Intercept-3) > 1e-5 {
		t.Errorf("intercept = %v, want 3", m.Intercept)
	}
}

func TestRidgeShrinks(t *testing.T) {
	X, y := synthData(100, 0.1, 2)
	plain, err := Fit(X, y, Options{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := Fit(X, y, Options{Intercept: true, Ridge: 100})
	if err != nil {
		t.Fatal(err)
	}
	var np, nr float64
	for i := range plain.Coef {
		np += plain.Coef[i] * plain.Coef[i]
		nr += ridge.Coef[i] * ridge.Coef[i]
	}
	if nr >= np {
		t.Errorf("ridge norm %v >= OLS norm %v", nr, np)
	}
}

func TestNonNegativeConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 300)
	y := make([]float64, 300)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 4*X[i][0] - 3*X[i][1] + 0.05*rng.NormFloat64() // one negative true coef
	}
	m, err := Fit(X, y, Options{Intercept: true, NonNegative: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Coef {
		if c < 0 {
			t.Errorf("coef[%d] = %v negative under constraint", i, c)
		}
	}
	if m.Intercept < 0 {
		t.Error("negative intercept under constraint")
	}
}

func TestForwardSelectFindsInformativeFeatures(t *testing.T) {
	X, y := synthData(400, 0.01, 4)
	m, err := ForwardSelect(X, y, 2, Options{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != 2 {
		t.Fatalf("selected %d features, want 2", len(m.Features))
	}
	got := map[int]bool{}
	for _, f := range m.Features {
		got[f] = true
	}
	if !got[0] || !got[2] {
		t.Errorf("selected %v, want features 0 and 2", m.Features)
	}
}

func TestForwardSelectErrorDecreasesWithBudget(t *testing.T) {
	X, y := synthData(400, 0.2, 5)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 3, 5} {
		m, err := ForwardSelect(X, y, k, Options{Intercept: true})
		if err != nil {
			t.Fatal(err)
		}
		e := MeanAbsPctError(m, X, y)
		if e > prev+1e-9 {
			t.Errorf("error with %d features %.4f worse than with fewer (%.4f)", k, e, prev)
		}
		prev = e
	}
}

func TestMeanAbsPctErrorZeroOnPerfectFit(t *testing.T) {
	X, y := synthData(50, 0, 6)
	m, err := Fit(X, y, Options{Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := MeanAbsPctError(m, X, y); e > 1e-6 {
		t.Errorf("perfect fit error %v", e)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	for i := 0; i < 60; i++ {
		X = append(X, []float64{rng.Float64() * 0.1, rng.Float64() * 0.1})
	}
	for i := 0; i < 60; i++ {
		X = append(X, []float64{10 + rng.Float64()*0.1, 10 + rng.Float64()*0.1})
	}
	assign, cent, err := KMeans(X, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cent) != 2 {
		t.Fatalf("centroids %d", len(cent))
	}
	for i := 1; i < 60; i++ {
		if assign[i] != assign[0] {
			t.Fatal("cluster 1 split")
		}
	}
	for i := 61; i < 120; i++ {
		if assign[i] != assign[60] {
			t.Fatal("cluster 2 split")
		}
	}
	if assign[0] == assign[60] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansDegenerateInputs(t *testing.T) {
	if _, _, err := KMeans(nil, 2, 10); err == nil {
		t.Error("empty input accepted")
	}
	X := [][]float64{{1, 2}, {3, 4}}
	assign, cent, err := KMeans(X, 5, 10) // k > n clamps
	if err != nil {
		t.Fatal(err)
	}
	if len(cent) != 2 || len(assign) != 2 {
		t.Errorf("clamp failed: %d centroids", len(cent))
	}
}

func TestCorrelationProperties(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if c := Correlation(a, a); math.Abs(c-1) > 1e-12 {
		t.Errorf("self correlation %v", c)
	}
	b := []float64{5, 4, 3, 2, 1}
	if c := Correlation(a, b); math.Abs(c+1) > 1e-12 {
		t.Errorf("anti correlation %v", c)
	}
	if Correlation(a, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("constant series correlation nonzero")
	}
}

func TestPredictLinearityProperty(t *testing.T) {
	m := &LinearModel{Features: []int{0, 1}, Coef: []float64{2, -1}, Intercept: 0.5}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		got := m.Predict([]float64{a, b})
		want := 0.5 + 2*a - b
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refFitOnColumns is the row-by-row normal-equation builder the Gram engine
// replaced, kept as its bit-identity reference: Z'Z and Z'y summed over the
// samples in order for just the selected columns.
func refFitOnColumns(X [][]float64, y []float64, cols []int, opt Options) (*LinearModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	k := len(cols)
	dim := k
	if opt.Intercept {
		dim++
	}
	zt := make([][]float64, dim)
	for i := range zt {
		zt[i] = make([]float64, dim)
	}
	zy := make([]float64, dim)
	row := make([]float64, dim)
	for s := 0; s < n; s++ {
		for i, c := range cols {
			row[i] = X[s][c]
		}
		if opt.Intercept {
			row[dim-1] = 1
		}
		for i := 0; i < dim; i++ {
			zy[i] += row[i] * y[s]
			for j := i; j < dim; j++ {
				zt[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			zt[i][j] = zt[j][i]
		}
		ridge := opt.Ridge
		if opt.Intercept && i == dim-1 {
			ridge = 0
		}
		zt[i][i] += ridge + 1e-9
	}
	w, err := solve(zt, zy)
	if err != nil {
		return nil, err
	}
	m := &LinearModel{Features: append([]int{}, cols...), Coef: w[:k], NonNegative: opt.NonNegative}
	if opt.Intercept {
		m.Intercept = w[k]
	}
	if opt.NonNegative {
		for {
			var keep []int
			for i, c := range m.Coef {
				if c >= 0 {
					keep = append(keep, m.Features[i])
				}
			}
			if len(keep) == len(m.Features) {
				break
			}
			if len(keep) == 0 {
				m.Coef = nil
				m.Features = nil
				break
			}
			sub := opt
			sub.NonNegative = false
			mm, err := refFitOnColumns(X, y, keep, sub)
			if err != nil {
				return nil, err
			}
			m.Features, m.Coef, m.Intercept = mm.Features, mm.Coef, mm.Intercept
		}
		if m.Intercept < 0 {
			m.Intercept = 0
		}
	}
	return m, nil
}

// refForwardSelect is the greedy loop the engine's Path replaced, refitting
// every candidate from the samples; with a candidate filter and the strict
// rule it is the hardware proxy's loop.
func refForwardSelect(X [][]float64, y []float64, maxFeatures int, sel Selection) (*LinearModel, float64, error) {
	nf := len(X[0])
	if maxFeatures > nf {
		maxFeatures = nf
	}
	var chosen []int
	used := make([]bool, nf)
	var best *LinearModel
	bestErr := math.Inf(1)
	for len(chosen) < maxFeatures {
		stepBestErr := math.Inf(1)
		stepBestF := -1
		var stepBestModel *LinearModel
		for f := 0; f < nf; f++ {
			if used[f] || (sel.Candidate != nil && !sel.Candidate(f)) {
				continue
			}
			cand := append(append([]int{}, chosen...), f)
			m, err := refFitOnColumns(X, y, cand, sel.Options)
			if err != nil || (sel.Strict && len(m.Features) != len(cand)) {
				continue
			}
			e := MeanAbsPctError(m, X, y)
			if e < stepBestErr {
				stepBestErr, stepBestF, stepBestModel = e, f, m
			}
		}
		if stepBestF < 0 {
			break
		}
		chosen = append(chosen, stepBestF)
		used[stepBestF] = true
		if stepBestErr < bestErr {
			bestErr, best = stepBestErr, stepBestModel
		}
	}
	if best == nil {
		return nil, 0, errors.New("mlfit: forward selection found no usable feature")
	}
	return best, bestErr, nil
}

// sameModel reports whether two models are bit-identical.
func sameModel(a, b *LinearModel) bool {
	if a.Intercept != b.Intercept || a.NonNegative != b.NonNegative ||
		len(a.Features) != len(b.Features) || len(a.Coef) != len(b.Coef) {
		return false
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			return false
		}
	}
	for i := range a.Coef {
		if a.Coef[i] != b.Coef[i] {
			return false
		}
	}
	return true
}

// engineCorpus is a corpus on which summation order shows in the low bits:
// features on scales from 1e-3 to 1e3, collinear pairs, and negative true
// weights that make non-negative fits prune columns.
func engineCorpus(seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	const n, nf = 240, 9
	X := make([][]float64, n)
	y := make([]float64, n)
	for s := range X {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.Float64() * math.Pow(10, float64(f%7-3))
		}
		row[7] = row[1]*0.9 + 0.1*rng.Float64()
		row[8] = row[3] + row[4]
		X[s] = row
		y[s] = 2 + 3*row[0] - 400*row[1] + 0.7*row[2] + 0.02*row[5] - 1e-3*row[6] + 0.3*rng.NormFloat64()
	}
	return X, y
}

var engineOptions = []struct {
	name string
	opt  Options
}{
	{"ols", Options{Intercept: true}},
	{"no-intercept", Options{}},
	{"ridge", Options{Intercept: true, Ridge: 0.5}},
	{"non-negative", Options{Intercept: true, NonNegative: true}},
	{"non-negative-ridge", Options{Intercept: true, NonNegative: true, Ridge: 1e-6}},
	{"non-negative-no-intercept", Options{NonNegative: true}},
}

// TestGramFitMatchesReference fits random column subsets, drawn in random
// order, from the Gram matrix and from the samples: the two must agree
// bit for bit.
func TestGramFitMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		X, y := engineCorpus(seed)
		g, err := NewGram(X)
		if err != nil {
			t.Fatal(err)
		}
		tgt := g.Target(y)
		rng := rand.New(rand.NewSource(seed + 100))
		for _, tc := range engineOptions {
			pruned := 0
			for draw := 0; draw < 40; draw++ {
				cols := rng.Perm(len(X[0]))[:1+rng.Intn(len(X[0]))]
				got, err := tgt.Fit(cols, tc.opt)
				want, werr := refFitOnColumns(X, y, cols, tc.opt)
				if (err != nil) != (werr != nil) {
					t.Fatalf("seed %d %s cols %v: err %v, reference err %v", seed, tc.name, cols, err, werr)
				}
				if err != nil {
					continue
				}
				if !sameModel(got, want) {
					t.Fatalf("seed %d %s cols %v:\n got %+v\nwant %+v", seed, tc.name, cols, got, want)
				}
				if len(got.Features) < len(cols) {
					pruned++
				}
			}
			if tc.opt.NonNegative && pruned == 0 {
				t.Errorf("seed %d %s: no draw pruned a column; the refit path is untested", seed, tc.name)
			}
		}
	}
}

// TestPathMatchesReferenceAtEveryBudget walks one path per rule set and
// checks that its step k is the reference selection at budget k, model and
// error alike, including budgets past the end of the path. The "falling"
// target falls with every feature, so non-negative fits prune their
// columns and the strict rule finds no model at all.
func TestPathMatchesReferenceAtEveryBudget(t *testing.T) {
	X, rising := engineCorpus(4)
	falling := make([]float64, len(X))
	for s, row := range X {
		for _, v := range row {
			falling[s] -= v
		}
	}
	g, err := NewGram(X)
	if err != nil {
		t.Fatal(err)
	}
	nf := len(X[0])
	for _, target := range []struct {
		name string
		y    []float64
	}{{"rising", rising}, {"falling", falling}} {
		tgt := g.Target(target.y)
		for _, tc := range engineOptions {
			for _, sel := range []struct {
				name string
				sel  Selection
			}{
				{"all", Selection{Options: tc.opt}},
				{"filtered-strict", Selection{Options: tc.opt, Candidate: func(f int) bool { return f != 2 }, Strict: true}},
			} {
				name := target.name + "/" + tc.name + "/" + sel.name
				path := tgt.Path(nf, sel.sel)
				for k := 1; k <= nf+2; k++ {
					want, wantErr, werr := refForwardSelect(X, target.y, k, sel.sel)
					got, err := path.At(k)
					if (err != nil) != (werr != nil) {
						t.Fatalf("%s budget %d: err %v, reference err %v", name, k, err, werr)
					}
					if err != nil {
						continue
					}
					if !sameModel(got.Model, want) || got.Error != wantErr {
						t.Fatalf("%s budget %d:\n got %+v (%v)\nwant %+v (%v)", name, k, got.Model, got.Error, want, wantErr)
					}
				}
			}
		}
	}
}

func TestPathBudgetEdges(t *testing.T) {
	X, y := engineCorpus(5)
	g, err := NewGram(X)
	if err != nil {
		t.Fatal(err)
	}
	path := g.Target(y).Path(3, Selection{Options: Options{Intercept: true}})
	if len(path) != 3 {
		t.Fatalf("path to budget 3 has %d steps", len(path))
	}
	for _, k := range []int{0, -1} {
		if _, err := path.At(k); err == nil {
			t.Errorf("budget %d accepted", k)
		}
	}
	if _, err := Path(nil).At(1); err == nil {
		t.Error("empty path read")
	}
	if _, err := NewGram(nil); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := g.Target(y[1:]).Fit([]int{0}, Options{}); err == nil {
		t.Error("short target accepted")
	}
}
