// ridge.go is the surrogate-grade half of mlfit: a Householder-QR least
// squares core, plus RidgeModel — a standardized ridge regression with
// leave-one-out cross-validation (exact, via the hat-matrix diagonal), greedy
// forward feature selection scored by LOO error, and leverage-based
// per-prediction uncertainty. RidgeModel is fully exported-field so it
// serializes to JSON and reloads with bit-identical predictions
// (encoding/json round-trips float64 exactly).
package mlfit

import (
	"errors"
	"fmt"
	"math"
)

const (
	// ridgeJitter is the minimum effective ridge on every column (including
	// a requested ridge of zero): it keeps exactly collinear columns
	// solvable, matching the historical normal-equations jitter.
	ridgeJitter = 1e-9
	// condLimit is the R-diagonal ratio beyond which the system is reported
	// singular rather than silently solved with garbage digits.
	condLimit = 1e14
	// hatFloor bounds 1-h away from zero in the LOO residual e/(1-h): a
	// leverage of exactly 1 means the point is only explained by itself.
	hatFloor = 1e-8
	// selectMinGain is the relative LOO-RMSE improvement a new feature must
	// deliver for forward selection to keep it.
	selectMinGain = 1e-3
)

// DefaultLambdas is the ridge grid FitRidgeCV searches when the caller does
// not supply one. Features are standardized, so the scale is data-independent.
var DefaultLambdas = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// errSingular reports a rank deficiency the caller's ridge did not cover.
var errSingular = errors.New("mlfit: singular system")

// The least-squares core is Householder QR over column-major storage: a[j]
// is column j, and every column and b have the same row count m. Step k
// turns column k, rows k and below, into its Householder vector; the rows
// above it keep R's entries. A step reads only the columns to its left, which
// is what lets ForwardSelectRidgeCV factor a shared prefix once per step.

// householder runs step k's reduction of column v and returns R's diagonal
// entry. The column norm is accumulated with hypot for range. A zero column
// is left as is and yields a zero diagonal.
func householder(v []float64, k int) float64 {
	nrm := 0.0
	for _, e := range v[k:] {
		nrm = math.Hypot(nrm, e)
	}
	if nrm != 0 {
		if v[k] < 0 {
			nrm = -nrm
		}
		vk := v[k:]
		for i := range vk {
			vk[i] /= nrm
		}
		vk[0] += 1
	}
	return -nrm
}

// reflect applies the reflection householder stored in v at step k to
// column c. v[k] is zero only when step k had a zero column, which reflects
// nothing.
func reflect(v, c []float64, k int) {
	if v[k] == 0 {
		return
	}
	vk, ck := v[k:], c[k:len(v)]
	s := 0.0
	for i, e := range vk {
		s += e * ck[i]
	}
	s = -s / vk[0]
	for i, e := range vk {
		ck[i] += s * e
	}
}

// factor runs Householder steps from..to-1 on the column-major a, recording
// R's diagonal in rdiag: step k reflects every column to its right and b.
func factor(a [][]float64, b, rdiag []float64, from, to int) {
	for k := from; k < to; k++ {
		rdiag[k] = householder(a[k], k)
		for _, c := range a[k+1:] {
			reflect(a[k], c, k)
		}
		reflect(a[k], b, k)
	}
}

// checkCond fails with errSingular when R's diagonal ratio exceeds
// condLimit, rather than solving with garbage digits.
func checkCond(rdiag []float64) error {
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
		return errSingular
	}
	return nil
}

// backSubstitute solves R x = (Q'b)[:n] into x for a factored column-major
// a of n columns.
func backSubstitute(x []float64, a [][]float64, rdiag, b []float64) {
	for i := len(a) - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < len(a); j++ {
			s -= a[j][i] * x[j]
		}
		x[i] = s / rdiag[i]
	}
}

// qrLS solves the dense least-squares problem min ||a x - b||_2 in place:
// a holds n columns of m >= n rows and b has length m. It fails where
// checkCond does. The returned r is an explicit n-by-n upper-triangular copy
// of the R factor.
func qrLS(a [][]float64, b []float64) (x []float64, r [][]float64, err error) {
	n := len(a)
	if len(b) < n {
		return nil, nil, errors.New("mlfit: bad least-squares dimensions")
	}
	rdiag := make([]float64, n)
	factor(a, b, rdiag, 0, n)
	if err := checkCond(rdiag); err != nil {
		return nil, nil, err
	}
	x = make([]float64, n)
	backSubstitute(x, a, rdiag, b)
	r = make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		r[i][i] = rdiag[i]
		for j := i + 1; j < n; j++ {
			r[i][j] = a[j][i]
		}
	}
	return x, r, nil
}

// RidgeModel is a standardized ridge regression with enough factorization
// state to price its own uncertainty: y ~ intercept + sum_j coef[j] *
// (x[features[j]] - mean[j]) / scale[j], with a per-prediction standard error
// derived from the LOO residual variance and the point's leverage under the
// stored R factor. All fields are exported so the model persists as JSON and
// reloads with bit-identical predictions.
type RidgeModel struct {
	// Features are column indices into the full feature row; Names are the
	// matching human-readable labels when the fit was given any.
	Features []int    `json:"features"`
	Names    []string `json:"names,omitempty"`
	// Mean and Scale standardize each selected feature before the linear map.
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
	// Coef applies in standardized space; Intercept is unshrunk.
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
	// Lambda is the ridge strength LOO cross-validation chose.
	Lambda float64 `json:"lambda"`
	// Sigma2 is the LOO residual variance (the honest noise estimate — the
	// training residual variance is biased low by the fit itself).
	Sigma2 float64 `json:"sigma2"`
	// R is the (k+1)x(k+1) upper-triangular factor of the ridge-augmented
	// design matrix, intercept column last: R'R = Z'Z + diag(lambda, .., 0).
	// Leverage of a new point z is ||R^-T z||^2, which is what prices
	// extrapolation: far-from-training points get wide error bars.
	R [][]float64 `json:"r"`
	// LOORMSE is the leave-one-out RMSE on the training set, N its size.
	LOORMSE float64 `json:"loo_rmse"`
	N       int     `json:"n"`
}

// ScratchLen is the scratch-slice length PredictStd needs for a zero-alloc
// prediction.
func (m *RidgeModel) ScratchLen() int { return 2 * (len(m.Coef) + 1) }

// Predict evaluates the mean prediction on a full feature row.
func (m *RidgeModel) Predict(row []float64) float64 {
	y := m.Intercept
	for j, f := range m.Features {
		y += m.Coef[j] * (row[f] - m.Mean[j]) / m.Scale[j]
	}
	return y
}

// PredictStd returns the mean prediction and its standard error on a full
// feature row. The std is sqrt(sigma2 * (1 + leverage)): LOO noise plus the
// parameter-uncertainty term, so points far outside the training cloud are
// priced as uncertain instead of confidently wrong. scratch must be at least
// ScratchLen() long for an allocation-free call; a short or nil scratch is
// replaced by a fresh allocation.
func (m *RidgeModel) PredictStd(row []float64, scratch []float64) (mean, std float64) {
	k := len(m.Coef)
	dim := k + 1
	if len(scratch) < 2*dim {
		scratch = make([]float64, 2*dim)
	}
	z := scratch[:dim]
	u := scratch[dim : 2*dim]
	mean = m.Intercept
	for j, f := range m.Features {
		zj := (row[f] - m.Mean[j]) / m.Scale[j]
		z[j] = zj
		mean += m.Coef[j] * zj
	}
	z[k] = 1
	// Forward-substitute R' u = z; leverage is ||u||^2.
	for i := 0; i < dim; i++ {
		s := z[i]
		for j := 0; j < i; j++ {
			s -= m.R[j][i] * u[j]
		}
		u[i] = s / m.R[i][i]
	}
	h := 0.0
	for i := 0; i < dim; i++ {
		h += u[i] * u[i]
	}
	std = math.Sqrt(m.Sigma2 * (1 + h))
	return mean, std
}

// Valid reports whether a (possibly deserialized) model is structurally
// usable: consistent slice lengths, a full R factor with a nonzero diagonal.
func (m *RidgeModel) Valid() error {
	k := len(m.Coef)
	if len(m.Features) != k || len(m.Mean) != k || len(m.Scale) != k {
		return fmt.Errorf("mlfit: ridge model slice lengths disagree (%d features, %d mean, %d scale, %d coef)",
			len(m.Features), len(m.Mean), len(m.Scale), k)
	}
	dim := k + 1
	if len(m.R) != dim {
		return fmt.Errorf("mlfit: ridge model R is %dx, want %dx", len(m.R), dim)
	}
	for i, row := range m.R {
		if len(row) != dim {
			return fmt.Errorf("mlfit: ridge model R row %d has %d cols, want %d", i, len(row), dim)
		}
		if row[i] == 0 || math.IsNaN(row[i]) || math.IsInf(row[i], 0) {
			return fmt.Errorf("mlfit: ridge model R diagonal %d is %v", i, row[i])
		}
	}
	for j, s := range m.Scale {
		if s == 0 || math.IsNaN(s) {
			return fmt.Errorf("mlfit: ridge model scale %d is %v", j, s)
		}
	}
	return nil
}

// standardize computes per-column mean and standard deviation over the
// selected columns. Constant columns get scale 1 (their standardized value is
// identically zero and the ridge absorbs them).
func standardize(X [][]float64, cols []int) (mean, scale []float64) {
	n := float64(len(X))
	mean = make([]float64, len(cols))
	scale = make([]float64, len(cols))
	for j, c := range cols {
		var s float64
		for _, row := range X {
			s += row[c]
		}
		mean[j] = s / n
		var v float64
		for _, row := range X {
			d := row[c] - mean[j]
			v += d * d
		}
		sd := math.Sqrt(v / n)
		if sd < 1e-12 {
			sd = 1
		}
		scale[j] = sd
	}
	return mean, scale
}

// buildZ renders the standardized design matrix for the selected columns in
// column-major order, with a trailing ones column for the intercept.
func buildZ(X [][]float64, cols []int, mean, scale []float64) [][]float64 {
	Z := make([][]float64, len(cols)+1)
	for j, c := range cols {
		z := make([]float64, len(X))
		for s, row := range X {
			z[s] = (row[c] - mean[j]) / scale[j]
		}
		Z[j] = z
	}
	ones := make([]float64, len(X))
	for s := range ones {
		ones[s] = 1
	}
	Z[len(cols)] = ones
	return Z
}

// ridgeEntry is a design column's entry on its own ridge row: the square
// root of its ridge, with the intercept column getting only the jitter.
func ridgeEntry(lambda float64, intercept bool) float64 {
	if intercept {
		lambda = 0
	}
	return math.Sqrt(lambda + ridgeJitter)
}

// ridgeColumn extends design column z to the m rows of the ridge-augmented
// system, with d on ridge row r and zero on the others.
func ridgeColumn(z []float64, m, r int, d float64) []float64 {
	c := make([]float64, m)
	copy(c, z)
	c[r] = d
	return c
}

// ridgeLOO fits coef on the standardized column-major design Z (ones column
// last, not shrunk) at the given lambda and returns the explicit R factor and
// the exact leave-one-out RMSE via the hat-matrix diagonal:
// h_i = ||R^-T z_i||^2 and e_loo = e_i / (1 - h_i).
func ridgeLOO(Z [][]float64, y []float64, lambda float64) (coef []float64, r [][]float64, looRMSE float64, err error) {
	n := len(y)
	if n == 0 {
		return nil, nil, 0, errors.New("mlfit: no samples")
	}
	dim := len(Z)
	a := make([][]float64, dim)
	for j, z := range Z {
		a[j] = ridgeColumn(z, n+dim, n+j, ridgeEntry(lambda, j == dim-1))
	}
	b := make([]float64, n+dim)
	copy(b, y)
	coef, r, err = qrLS(a, b)
	if err != nil {
		return nil, nil, 0, err
	}
	z := make([]float64, dim)
	u := make([]float64, dim)
	var sse float64
	for i := 0; i < n; i++ {
		for p, col := range Z {
			z[p] = col[i]
		}
		// Forward-substitute R' u = z for the leverage.
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
	looRMSE = math.Sqrt(sse / float64(n))
	return coef, r, looRMSE, nil
}

// fitRidgeModel assembles a RidgeModel for the chosen columns: it searches
// the lambda grid by LOO RMSE and keeps the winner's factorization.
func fitRidgeModel(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	mean, scale := standardize(X, cols)
	Z := buildZ(X, cols, mean, scale)
	var (
		best     *RidgeModel
		bestRMSE = math.Inf(1)
	)
	for _, l := range lambdas {
		coef, r, rmse, err := ridgeLOO(Z, y, l)
		if err != nil {
			continue
		}
		if rmse < bestRMSE {
			bestRMSE = rmse
			k := len(cols)
			m := &RidgeModel{
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
				m.Names = make([]string, k)
				for j, c := range cols {
					m.Names[j] = names[c]
				}
			}
			best = m
		}
	}
	if best == nil {
		return nil, errors.New("mlfit: ridge fit failed at every lambda")
	}
	return best, nil
}

// FitRidgeCV fits a standardized ridge regression of y on the selected
// columns, choosing the ridge strength from the lambda grid (DefaultLambdas
// when nil) by exact leave-one-out cross-validation. names may be nil or a
// full-width feature-name list.
func FitRidgeCV(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	if len(cols) == 0 {
		return nil, errors.New("mlfit: no columns selected")
	}
	return fitRidgeModel(X, y, cols, names, lambdas)
}

// stepScorer scores the candidates of one forward-selection step by their
// training SSE at one lambda. A candidate's design is the chosen columns, the
// candidate, then the ones column, ridge-augmented as in ridgeLOO. Its first
// k Householder steps read only the chosen columns, so they are factored
// once, in this step's row layout, and applied to y and the ones column once.
// A candidate then costs its own column's k reflections, the last two steps,
// the condition check and back-substitution. Every sum runs over the same
// rows in the same order as qrLS on the candidate's full design, so each
// score is bit-identical to fitting that design from scratch.
type stepScorer struct {
	design [][]float64 // standardized columns: chosen, last candidate, ones
	y      []float64
	cols   [][]float64 // factored chosen columns, then candidate and ones work columns
	ones   []float64   // ridge-augmented ones column after the chosen steps
	b, bw  []float64   // y after the chosen steps, and its per-candidate copy
	rdiag  []float64
	x      []float64
	shrink float64
}

// newStepScorer factors the chosen columns of the column-major standardized
// matrix Z, whose last column is the ones column.
func newStepScorer(Z [][]float64, y []float64, chosen []int, lambda float64) *stepScorer {
	n, k := len(y), len(chosen)
	dim := k + 2
	m := n + dim
	s := &stepScorer{
		design: make([][]float64, dim),
		y:      y,
		cols:   make([][]float64, dim),
		b:      make([]float64, m),
		bw:     make([]float64, m),
		rdiag:  make([]float64, dim),
		x:      make([]float64, dim),
		shrink: ridgeEntry(lambda, false),
	}
	for j, c := range chosen {
		s.design[j] = Z[c]
		s.cols[j] = ridgeColumn(Z[c], m, n+j, s.shrink)
	}
	s.design[k+1] = Z[len(Z)-1]
	s.ones = ridgeColumn(Z[len(Z)-1], m, n+k+1, ridgeEntry(lambda, true))
	s.cols[k], s.cols[k+1] = make([]float64, m), make([]float64, m)
	copy(s.b, y)
	factor(append(s.cols[:k:k], s.ones), s.b, s.rdiag, 0, k)
	return s
}

// score returns the training SSE of the design with candidate column z, or
// false when that system is singular.
func (s *stepScorer) score(z []float64) (float64, bool) {
	k := len(s.cols) - 2
	n := len(s.y)
	c, o := s.cols[k], s.cols[k+1]
	copy(c, z)
	clear(c[n:])
	c[n+k] = s.shrink
	for j, v := range s.cols[:k] {
		reflect(v, c, j)
	}
	copy(o, s.ones)
	copy(s.bw, s.b)
	factor(s.cols, s.bw, s.rdiag, k, k+2)
	if checkCond(s.rdiag) != nil {
		return 0, false
	}
	backSubstitute(s.x, s.cols, s.rdiag, s.bw)
	s.design[k] = z
	var sse float64
	for i, yi := range s.y {
		var pred float64
		for p, col := range s.design {
			pred += s.x[p] * col[i]
		}
		d := yi - pred
		sse += d * d
	}
	return sse, true
}

// ForwardSelectRidgeCV greedily grows a feature set for a standardized ridge
// model: each step adds the candidate with the lowest training RMSE at a
// mid-grid lambda, then keeps it only if the step's LOO RMSE improves on the
// incumbent by selectMinGain. The final model re-searches the full lambda
// grid on the chosen set. This is the honest version of ForwardSelect for
// prediction (training error always rewards more features; LOO does not).
func ForwardSelectRidgeCV(X [][]float64, y []float64, names []string, maxFeatures int, lambdas []float64) (*RidgeModel, error) {
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
	// Never fit more parameters than a third of the samples can support.
	if lim := n/3 + 1; maxFeatures > lim {
		maxFeatures = lim
	}
	lambdaMid := lambdas[len(lambdas)/2]
	allCols := make([]int, nf)
	for i := range allCols {
		allCols[i] = i
	}
	fullMean, fullScale := standardize(X, allCols)
	Z := buildZ(X, allCols, fullMean, fullScale) // Z[nf] is the ones column
	var (
		chosen   []int
		used     = make([]bool, nf)
		bestLOO  = math.Inf(1)
		haveBest = false
	)
	for len(chosen) < maxFeatures {
		scorer := newStepScorer(Z, y, chosen, lambdaMid)
		stepErr := math.Inf(1)
		stepF := -1
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			if sse, ok := scorer.score(Z[f]); ok && sse < stepErr {
				stepErr, stepF = sse, f
			}
		}
		if stepF < 0 {
			break
		}
		scorer.design[len(chosen)] = Z[stepF]
		_, _, loo, err := ridgeLOO(scorer.design, y, lambdaMid)
		if err != nil {
			break
		}
		if haveBest && loo >= bestLOO*(1-selectMinGain) {
			break // diminishing returns: the honest error stopped improving
		}
		bestLOO, haveBest = loo, true
		chosen = append(chosen, stepF)
		used[stepF] = true
	}
	if len(chosen) == 0 {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return fitRidgeModel(X, y, chosen, names, lambdas)
}
