// Package mlfit provides the small machine-learning substrate the paper's
// methodology uses: linear counter-based power models fit by (ridge-)least
// squares, greedy forward feature selection under input-count constraints
// (how the M1-linked models and the hardware power proxy choose their
// counters). Standard library only.
package mlfit

import (
	"errors"
	"math"
)

// LinearModel is y ~ intercept + sum_i coef[i] * x[features[i]].
type LinearModel struct {
	Features  []int // column indices into the full feature matrix
	Coef      []float64
	Intercept float64
	// NonNegative records whether the fit constrained coefficients >= 0
	// (hardware power proxies often require positive weights).
	NonNegative bool
}

// Predict evaluates the model on a full feature row.
func (m *LinearModel) Predict(row []float64) float64 {
	y := m.Intercept
	for i, f := range m.Features {
		y += m.Coef[i] * row[f]
	}
	return y
}

// Options configures fitting.
type Options struct {
	Ridge       float64 // L2 regularization strength (0 = plain OLS)
	Intercept   bool
	NonNegative bool // clip-and-refit to keep coefficients >= 0
}

// solve performs Gaussian elimination with partial pivoting on a copy of A|b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, errors.New("mlfit: singular system")
		}
		m[col], m[p] = m[p], m[col]
		pv := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / pv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}

// Gram holds the sums every least-squares fit on one corpus is assembled
// from: X'X over the feature columns plus a trailing ones column (the
// intercept). Each entry adds its products in sample order, the order a
// row-by-row normal-equation build adds them, so a fit solved from a slice
// of the matrix is bit-identical to one built from the samples.
type Gram struct {
	x   [][]float64 // the samples, kept to score candidate fits
	nf  int         // feature columns; index nf is the ones column
	xtx []float64   // (nf+1) x (nf+1), row-major, symmetric
}

// NewGram sums X'X for a corpus.
func NewGram(X [][]float64) (*Gram, error) {
	if len(X) == 0 {
		return nil, errors.New("mlfit: no samples")
	}
	nf := len(X[0])
	d := nf + 1
	g := &Gram{x: X, nf: nf, xtx: make([]float64, d*d)}
	row := make([]float64, 0, d)
	for _, xs := range X {
		row = append(append(row[:0], xs...), 1)
		for i := range row {
			gi := g.xtx[i*d : (i+1)*d]
			for j := i; j < len(row); j++ {
				gi[j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			g.xtx[i*d+j] = g.xtx[j*d+i]
		}
	}
	return g, nil
}

// Target is one response vector on a corpus: X'y with the ones column
// last, summed in sample order. All targets of a corpus share its Gram.
type Target struct {
	g   *Gram
	y   []float64
	xty []float64
}

// Target sums X'y for a response vector.
func (g *Gram) Target(y []float64) *Target {
	t := &Target{g: g, y: y, xty: make([]float64, g.nf+1)}
	if len(y) != len(g.x) {
		return t // every fit reports the bad dimensions
	}
	for s, xs := range g.x {
		for i, v := range xs {
			t.xty[i] += v * y[s]
		}
		t.xty[g.nf] += y[s] // the ones column
	}
	return t
}

// Fit fits the target on the given columns, solving the (ridge) normal
// equations sliced from the Gram matrix.
func (t *Target) Fit(cols []int, opt Options) (*LinearModel, error) {
	if len(t.y) != len(t.g.x) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	k := len(cols)
	idx := cols
	if opt.Intercept {
		idx = append(cols[:k:k], t.g.nf)
	}
	d := t.g.nf + 1
	zt := make([][]float64, len(idx))
	zy := make([]float64, len(idx))
	for i, ci := range idx {
		zt[i] = make([]float64, len(idx))
		for j, cj := range idx {
			zt[i][j] = t.g.xtx[ci*d+cj]
		}
		ridge := opt.Ridge
		if i == k {
			ridge = 0 // do not shrink the intercept
		}
		zt[i][i] += ridge + 1e-9 // tiny jitter for stability
		zy[i] = t.xty[ci]
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
		// Iteratively drop negative-coefficient features and refit.
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
			mm, err := t.Fit(keep, sub)
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

// Fit fits a linear model on all columns of X.
func Fit(X [][]float64, y []float64, opt Options) (*LinearModel, error) {
	g, err := NewGram(X)
	if err != nil {
		return nil, err
	}
	cols := make([]int, g.nf)
	for i := range cols {
		cols[i] = i
	}
	return g.Target(y).Fit(cols, opt)
}

// MeanAbsPctError returns mean |pred-y|/mean(y) — the "% error on active
// power" metric the paper's model-accuracy figures report.
func MeanAbsPctError(m *LinearModel, X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	var meanY, sumAbs float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	if meanY == 0 {
		return 0
	}
	for i, row := range X {
		sumAbs += math.Abs(m.Predict(row) - y[i])
	}
	return sumAbs / float64(len(X)) / meanY * 100
}

// Selection is the rule set of a greedy forward-selection path.
type Selection struct {
	Options
	// Candidate reports whether column f may enter the model; nil admits
	// every column.
	Candidate func(f int) bool
	// Strict rejects a candidate whose non-negative refit pruned a column,
	// so every step adds exactly one input.
	Strict bool
}

// Step is one step of a forward-selection path: the lowest-error model of
// the steps so far and its training error (MeanAbsPctError).
type Step struct {
	Model *LinearModel
	Error float64
}

// Path is a greedy forward-selection path; Path[k-1] is the model
// selection returns at an input budget of k.
type Path []Step

// At returns the model selected at an input budget. A budget past the end
// of the path, where the columns ran out or no candidate fit, reads the
// last step.
func (p Path) At(budget int) (Step, error) {
	if budget <= 0 || len(p) == 0 {
		return Step{}, errors.New("mlfit: forward selection found no usable feature")
	}
	if budget > len(p) {
		budget = len(p)
	}
	return p[budget-1], nil
}

// Path walks greedy forward selection for up to maxFeatures steps. Each
// step adds the admitted column whose fit has the lowest training error,
// the first such column on a tie, so the path to a large budget passes
// through the selection at every smaller one. The walk stops early when no
// candidate fits.
func (t *Target) Path(maxFeatures int, sel Selection) Path {
	var path Path
	var chosen, cand []int
	used := make([]bool, t.g.nf)
	best := Step{Error: math.Inf(1)}
	for len(chosen) < maxFeatures {
		step, pick := Step{Error: math.Inf(1)}, -1
		for f := 0; f < t.g.nf; f++ {
			if used[f] || (sel.Candidate != nil && !sel.Candidate(f)) {
				continue
			}
			cand = append(append(cand[:0], chosen...), f)
			m, err := t.Fit(cand, sel.Options)
			if err != nil || (sel.Strict && len(m.Features) != len(cand)) {
				continue
			}
			if e := MeanAbsPctError(m, t.g.x, t.y); e < step.Error {
				step, pick = Step{Model: m, Error: e}, f
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

// ForwardSelect greedily adds up to maxFeatures columns, each step choosing
// the feature that most reduces training error, and returns the best model
// found. This is how the methodology derives constrained-input power
// models (Figs. 11 and 15a).
func ForwardSelect(X [][]float64, y []float64, maxFeatures int, opt Options) (*LinearModel, error) {
	g, err := NewGram(X)
	if err != nil {
		return nil, err
	}
	s, err := g.Target(y).Path(maxFeatures, Selection{Options: opt}).At(maxFeatures)
	return s.Model, err
}

// Correlation returns the Pearson correlation of two series.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
