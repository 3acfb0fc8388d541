package mlfit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
)

// testRNG is a deterministic splitmix64 generator so fits are reproducible.
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform in [0, 1).
func (r *testRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// TestQRNearCollinearFeatures is the numerical-robustness regression test:
// two config features that are almost exact copies of each other (the kind of
// correlation cache-size and associativity features have). The old
// normal-equations path squared the condition number and silently degraded;
// the QR path must keep the *predictions* accurate even though the individual
// coefficients are ill-determined.
func TestQRNearCollinearFeatures(t *testing.T) {
	rng := &testRNG{state: 7}
	const n = 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x1 := rng.float() * 10
		x2 := x1 + 1e-9*rng.float() // nearly collinear
		x3 := rng.float()
		X[i] = []float64{x1, x2, x3}
		y[i] = 2*x1 + 3*x2 - 1.5*x3 + 4
	}
	m, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"x1", "x2", "x3"}, []float64{0})
	if err != nil {
		t.Fatalf("fit on near-collinear features: %v", err)
	}
	for i, row := range X {
		if d := math.Abs(m.Predict(row) - y[i]); d > 1e-4 {
			t.Fatalf("sample %d: |pred-y| = %g, want < 1e-4", i, d)
		}
	}
	// An exactly duplicated column must also stay solvable (jitter floor).
	for i := range X {
		X[i][1] = X[i][0]
	}
	if _, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"x1", "x2", "x3"}, []float64{0}); err != nil {
		t.Fatalf("fit on exactly collinear features: %v", err)
	}
}

// TestRidgeLOOMatchesBruteForce checks the hat-diagonal LOO shortcut against
// literally refitting with each sample held out.
func TestRidgeLOOMatchesBruteForce(t *testing.T) {
	rng := &testRNG{state: 42}
	const (
		n      = 14
		dim    = 3 // 2 features + intercept column
		lambda = 0.1
	)
	Z := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		Z[0][i], Z[1][i], Z[2][i] = rng.float()*2-1, rng.float()*2-1, 1
		y[i] = 1.5*Z[0][i] - 0.7*Z[1][i] + 0.3 + 0.05*(rng.float()-0.5)
	}
	_, _, fast, err := ridgeLOO(Z, y, lambda)
	if err != nil {
		t.Fatalf("ridgeLOO: %v", err)
	}
	// Brute force: refit on n-1 samples, predict the held-out one.
	var sse float64
	for hold := 0; hold < n; hold++ {
		drop := func(v []float64) []float64 {
			return append(append([]float64(nil), v[:hold]...), v[hold+1:]...)
		}
		a := make([][]float64, dim)
		for j, z := range Z {
			a[j] = ridgeColumn(drop(z), n-1+dim, n-1+j, ridgeEntry(lambda, j == dim-1))
		}
		b := make([]float64, n-1+dim)
		copy(b, drop(y))
		coef, _, err := qrLS(a, b)
		if err != nil {
			t.Fatalf("hold-out %d: %v", hold, err)
		}
		var pred float64
		for p, c := range coef {
			pred += c * Z[p][hold]
		}
		e := y[hold] - pred
		sse += e * e
	}
	brute := math.Sqrt(sse / n)
	if d := math.Abs(fast - brute); d > 1e-9 {
		t.Fatalf("LOO shortcut %.12f vs brute force %.12f (|d|=%g)", fast, brute, d)
	}
}

// TestRidgeModelJSONRoundTrip asserts bit-identical predictions after a
// marshal/unmarshal cycle — the property the surrogate's byte-stable output
// contract rests on.
func TestRidgeModelJSONRoundTrip(t *testing.T) {
	rng := &testRNG{state: 3}
	const n = 60
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.float() * 7, rng.float(), rng.float() * 100}
		y[i] = 0.4*X[i][0] - 2*X[i][1] + 0.01*X[i][2] + 1 + 0.01*(rng.float()-0.5)
	}
	m, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatalf("FitRidgeCV: %v", err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RidgeModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Valid(); err != nil {
		t.Fatalf("reloaded model invalid: %v", err)
	}
	scratch := make([]float64, m.ScratchLen())
	for i := 0; i < n; i++ {
		m1, s1 := m.PredictStd(X[i], scratch)
		m2, s2 := back.PredictStd(X[i], scratch)
		if m1 != m2 || s1 != s2 {
			t.Fatalf("row %d: prediction drifted across JSON round-trip: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
		}
	}
}

// TestForwardSelectRidgeCV checks that CV-scored selection finds the
// informative features, ignores noise columns, and that the resulting
// uncertainty estimate widens away from the training cloud.
func TestForwardSelectRidgeCV(t *testing.T) {
	rng := &testRNG{state: 11}
	const n, nf = 150, 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.float()*2 - 1
		}
		X[i] = row
		y[i] = 3*row[2] - 2*row[5] + 0.5 + 0.01*(rng.float()-0.5)
	}
	m, err := ForwardSelectRidgeCV(X, y, nil, 4, nil)
	if err != nil {
		t.Fatalf("ForwardSelectRidgeCV: %v", err)
	}
	got := map[int]bool{}
	for _, f := range m.Features {
		got[f] = true
	}
	if !got[2] || !got[5] {
		t.Fatalf("selection missed informative features: chose %v", m.Features)
	}
	if m.LOORMSE > 0.05 {
		t.Fatalf("LOO RMSE %.4f, want <= 0.05", m.LOORMSE)
	}
	scratch := make([]float64, m.ScratchLen())
	inRow := X[0]
	farRow := make([]float64, nf)
	for j := range farRow {
		farRow[j] = 25 // far outside the [-1,1] training cloud
	}
	_, sIn := m.PredictStd(inRow, scratch)
	_, sFar := m.PredictStd(farRow, scratch)
	if sFar <= sIn*2 {
		t.Fatalf("extrapolation std %.6f not meaningfully wider than interpolation std %.6f", sFar, sIn)
	}
}

// TestPredictStdZeroAllocScratch guards the steady-state allocation contract
// the surrogate tier depends on.
func TestPredictStdZeroAllocScratch(t *testing.T) {
	rng := &testRNG{state: 5}
	const n = 40
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.float(), rng.float()}
		y[i] = X[i][0] + 2*X[i][1]
	}
	m, err := FitRidgeCV(X, y, []int{0, 1}, nil, nil)
	if err != nil {
		t.Fatalf("FitRidgeCV: %v", err)
	}
	scratch := make([]float64, m.ScratchLen())
	row := X[0]
	allocs := testing.AllocsPerRun(100, func() {
		m.PredictStd(row, scratch)
	})
	if allocs != 0 {
		t.Fatalf("PredictStd allocates %v allocs/op with scratch, want 0", allocs)
	}
}

// The reference below is forward selection as it was before the
// shared-prefix scorer: each candidate renders its own row-major design
// (refBuildZ) and runs a full row-major Householder QR (refQRLS) whose
// leverages it then discards, and the final model is fitted the same way.
// TestForwardSelectRidgeCVMatchesReference holds the production path to it
// bit for bit.

func refQRLS(a [][]float64, b []float64, n int) (x []float64, r [][]float64, err error) {
	m := len(a)
	if m < n || len(b) != m {
		return nil, nil, errors.New("mlfit: bad least-squares dimensions")
	}
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, a[i][k])
		}
		if nrm != 0 {
			if a[k][k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				a[i][k] /= nrm
			}
			a[k][k] += 1
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += a[i][k] * a[i][j]
				}
				s = -s / a[k][k]
				for i := k; i < m; i++ {
					a[i][j] += s * a[i][k]
				}
			}
			s := 0.0
			for i := k; i < m; i++ {
				s += a[i][k] * b[i]
			}
			s = -s / a[k][k]
			for i := k; i < m; i++ {
				b[i] += s * a[i][k]
			}
		}
		rdiag[k] = -nrm
	}
	rmin, rmax := math.Inf(1), 0.0
	for _, d := range rdiag {
		ad := math.Abs(d)
		if ad < rmin {
			rmin = ad
		}
		if ad > rmax {
			rmax = ad
		}
	}
	if rmin == 0 || rmax/rmin > condLimit {
		return nil, nil, errors.New("mlfit: singular system")
	}
	x = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / rdiag[i]
	}
	r = make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		r[i][i] = rdiag[i]
		for j := i + 1; j < n; j++ {
			r[i][j] = a[i][j]
		}
	}
	return x, r, nil
}

func refBuildZ(X [][]float64, cols []int, mean, scale []float64) [][]float64 {
	dim := len(cols) + 1
	Z := make([][]float64, len(X))
	for s, row := range X {
		z := make([]float64, dim)
		for j, c := range cols {
			z[j] = (row[c] - mean[j]) / scale[j]
		}
		z[dim-1] = 1
		Z[s] = z
	}
	return Z
}

func refRidgeLOO(Z [][]float64, y []float64, lambda float64) (coef []float64, r [][]float64, looRMSE float64, err error) {
	n := len(Z)
	if n == 0 {
		return nil, nil, 0, errors.New("mlfit: no samples")
	}
	dim := len(Z[0])
	a := make([][]float64, n+dim)
	b := make([]float64, n+dim)
	for i, z := range Z {
		a[i] = append([]float64(nil), z...)
		b[i] = y[i]
	}
	for j := 0; j < dim; j++ {
		row := make([]float64, dim)
		l := lambda
		if j == dim-1 {
			l = 0
		}
		row[j] = math.Sqrt(l + ridgeJitter)
		a[n+j] = row
	}
	coef, r, err = refQRLS(a, b, dim)
	if err != nil {
		return nil, nil, 0, err
	}
	u := make([]float64, dim)
	var sse float64
	for i, z := range Z {
		for p := 0; p < dim; p++ {
			s := z[p]
			for q := 0; q < p; q++ {
				s -= r[q][p] * u[q]
			}
			u[p] = s / r[p][p]
		}
		var h, pred float64
		for p := 0; p < dim; p++ {
			h += u[p] * u[p]
			pred += coef[p] * z[p]
		}
		denom := 1 - h
		if denom < hatFloor {
			denom = hatFloor
		}
		e := (y[i] - pred) / denom
		sse += e * e
	}
	return coef, r, math.Sqrt(sse / float64(n)), nil
}

func refFitRidgeModel(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	mean, scale := standardize(X, cols)
	Z := refBuildZ(X, cols, mean, scale)
	var (
		best     *RidgeModel
		bestRMSE = math.Inf(1)
	)
	for _, l := range lambdas {
		coef, r, rmse, err := refRidgeLOO(Z, y, l)
		if err != nil {
			continue
		}
		if rmse < bestRMSE {
			bestRMSE = rmse
			k := len(cols)
			best = &RidgeModel{
				Features:  append([]int(nil), cols...),
				Mean:      mean,
				Scale:     scale,
				Coef:      coef[:k],
				Intercept: coef[k],
				Lambda:    l,
				Sigma2:    rmse * rmse,
				R:         r,
				LOORMSE:   rmse,
				N:         len(X),
			}
			if names != nil {
				best.Names = make([]string, k)
				for j, c := range cols {
					best.Names[j] = names[c]
				}
			}
		}
	}
	if best == nil {
		return nil, errors.New("mlfit: ridge fit failed at every lambda")
	}
	return best, nil
}

// refScore is the reference's candidate score: the training SSE of a fresh
// fit on the row-major design Z, or false when the system is singular.
func refScore(Z [][]float64, y []float64, lambda float64) (float64, bool) {
	coef, _, _, err := refRidgeLOO(Z, y, lambda)
	if err != nil {
		return 0, false
	}
	var sse float64
	for i, z := range Z {
		var pred float64
		for p, c := range coef {
			pred += c * z[p]
		}
		d := y[i] - pred
		sse += d * d
	}
	return sse, true
}

func refForwardSelectRidgeCV(X [][]float64, y []float64, names []string, maxFeatures int, lambdas []float64) (*RidgeModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	nf := len(X[0])
	if nf == 0 {
		return nil, errors.New("mlfit: no features")
	}
	if maxFeatures > nf {
		maxFeatures = nf
	}
	if lim := n/3 + 1; maxFeatures > lim {
		maxFeatures = lim
	}
	lambdaMid := lambdas[len(lambdas)/2]
	allCols := make([]int, nf)
	for i := range allCols {
		allCols[i] = i
	}
	fullMean, fullScale := standardize(X, allCols)
	design := func(cand []int) [][]float64 {
		mean := make([]float64, len(cand))
		scale := make([]float64, len(cand))
		for j, c := range cand {
			mean[j], scale[j] = fullMean[c], fullScale[c]
		}
		return refBuildZ(X, cand, mean, scale)
	}
	var (
		chosen   []int
		used     = make([]bool, nf)
		bestLOO  = math.Inf(1)
		haveBest = false
	)
	for len(chosen) < maxFeatures {
		stepErr := math.Inf(1)
		stepF := -1
		cand := append(append([]int(nil), chosen...), -1)
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			cand[len(cand)-1] = f
			if sse, ok := refScore(design(cand), y, lambdaMid); ok && sse < stepErr {
				stepErr, stepF = sse, f
			}
		}
		if stepF < 0 {
			break
		}
		cand[len(cand)-1] = stepF
		_, _, loo, err := refRidgeLOO(design(cand), y, lambdaMid)
		if err != nil {
			break
		}
		if haveBest && loo >= bestLOO*(1-selectMinGain) {
			break
		}
		bestLOO, haveBest = loo, true
		chosen = append(chosen, stepF)
		used[stepF] = true
	}
	if len(chosen) == 0 {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return refFitRidgeModel(X, y, chosen, names, lambdas)
}

// refInput draws one forward-selection input: 10 to 200 rows and 1 to 12
// columns, each uniform, constant, a duplicate of an earlier column, an
// earlier column plus 1e-10 noise, discrete, or scaled by 1e6, with y a noisy
// linear function of the underlying values. Even seeds search the default
// lambda grid, odd seeds {0}.
func refInput(seed uint64) (X [][]float64, y []float64, names []string, maxFeatures int, lambdas []float64) {
	rng := &testRNG{state: seed}
	n := 10 + int(rng.next()%191)
	nf := 1 + int(rng.next()%12)
	base := make([][]float64, nf) // column j's values before scaling
	scale := make([]float64, nf)
	for j := range base {
		col := make([]float64, n)
		scale[j] = 1
		switch kind := rng.next() % 6; {
		case kind == 1:
			v := rng.float()
			for i := range col {
				col[i] = v
			}
		case kind == 2 && j > 0:
			copy(col, base[rng.next()%uint64(j)])
		case kind == 3 && j > 0:
			src := base[rng.next()%uint64(j)]
			for i := range col {
				col[i] = src[i] + 1e-10*rng.float()
			}
		case kind == 4:
			for i := range col {
				col[i] = float64(rng.next() % 3)
			}
		default:
			for i := range col {
				col[i] = rng.float()*2 - 1
			}
			if kind == 5 {
				scale[j] = 1e6
			}
		}
		base[j] = col
		names = append(names, fmt.Sprintf("c%d", j))
	}
	w := make([]float64, nf)
	for j := range w {
		if rng.next()%2 == 0 {
			w[j] = rng.float()*4 - 2
		}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		X[i] = make([]float64, nf)
		y[i] = 0.5 + 0.01*(rng.float()-0.5)
		for j := range X[i] {
			X[i][j] = base[j][i] * scale[j]
			y[i] += w[j] * base[j][i]
		}
	}
	maxFeatures = 1 + int(rng.next()%uint64(nf+2))
	if seed%2 == 1 {
		lambdas = []float64{0}
	}
	return X, y, names, maxFeatures, lambdas
}

// TestForwardSelectRidgeCVMatchesReference runs seeded inputs, plus the
// dimension errors, through the shared-prefix scorer and the per-candidate
// reference: every model must marshal to the same bytes and every error
// must read the same. Along each selected path it also compares every
// candidate's score bit for bit, since a score can drift without changing
// which candidate wins.
func TestForwardSelectRidgeCVMatchesReference(t *testing.T) {
	type input struct {
		X           [][]float64
		y           []float64
		names       []string
		maxFeatures int
		lambdas     []float64
	}
	inputs := []input{
		{X: nil, y: nil, maxFeatures: 3},
		{X: [][]float64{{}, {}, {}}, y: []float64{1, 2, 3}, maxFeatures: 3},
		{X: [][]float64{{1}, {2}}, y: []float64{1}, maxFeatures: 3},
	}
	for seed := uint64(1); seed <= 240; seed++ {
		X, y, names, maxFeatures, lambdas := refInput(seed)
		inputs = append(inputs, input{X, y, names, maxFeatures, lambdas})
	}
	selected := 0
	for i, in := range inputs {
		got, gotErr := ForwardSelectRidgeCV(in.X, in.y, in.names, in.maxFeatures, in.lambdas)
		want, wantErr := refForwardSelectRidgeCV(in.X, in.y, in.names, in.maxFeatures, in.lambdas)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("input %d: error %v, reference %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("input %d: model differs from the reference\n got: %s\nwant: %s", i, g, w)
		}
		selected += len(got.Features)
		compareScores(t, i, in.X, in.y, got.Features, in.lambdas)
	}
	if selected < len(inputs) {
		t.Errorf("only %d features selected over %d inputs: the inputs barely exercise selection", selected, len(inputs))
	}
}

// compareScores checks stepScorer against refScore for every candidate at
// every step of the selected path chosen.
func compareScores(t *testing.T, input int, X [][]float64, y []float64, chosen []int, lambdas []float64) {
	t.Helper()
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	lambda := lambdas[len(lambdas)/2]
	nf := len(X[0])
	all := make([]int, nf)
	for i := range all {
		all[i] = i
	}
	mean, scale := standardize(X, all)
	Z := buildZ(X, all, mean, scale)
	for k := range chosen {
		scorer := newStepScorer(Z, y, chosen[:k], lambda)
		cand := append(append([]int(nil), chosen[:k]...), -1)
		for f := 0; f < nf; f++ {
			cand[k] = f
			m, s := make([]float64, k+1), make([]float64, k+1)
			for j, c := range cand {
				m[j], s[j] = mean[c], scale[c]
			}
			got, gotOK := scorer.score(Z[f])
			want, wantOK := refScore(refBuildZ(X, cand, m, s), y, lambda)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("input %d, step %d, candidate %d: score (%v, %v), reference (%v, %v)",
					input, k, f, got, gotOK, want, wantOK)
			}
		}
	}
}
