package surrogate

import (
	"fmt"
	"hash/fnv"
	"math"
)

// TargetError is one target's held-out accuracy, over every scoreable row
// and over the served subset (rows whose prediction clears the confidence
// gate — the only predictions p10explore ranks without simulating).
type TargetError struct {
	Name string `json:"name"`
	// MAPE is the mean absolute percent error on held-out ground truth.
	MAPE float64 `json:"mape_pct"`
	// RMSLog is the RMS log-space error (the scale the model fits on).
	RMSLog float64 `json:"rms_log"`
	// Worst is the largest single-point percent error.
	Worst float64 `json:"worst_pct"`
	// ServedMAPE/ServedWorst restrict to gate-clearing rows — the metric the
	// explore-check gate bounds at 5% for CPI and power, because it is the
	// error of what the surrogate actually serves.
	ServedMAPE  float64 `json:"served_mape_pct"`
	ServedWorst float64 `json:"served_worst_pct"`
}

// ValidateResult is a held-out validation: the model trained on the train
// split and its errors on the untouched test split.
type ValidateResult struct {
	TrainRows int `json:"train_rows"`
	TestRows  int `json:"test_rows"`
	// SkippedVocab counts test rows whose workload never occurs in the train
	// split (the model cannot claim them and the gate does not score them).
	SkippedVocab int `json:"skipped_vocab"`
	// Threshold is the confidence gate the served metrics use; ServedRows
	// counts held-out rows whose prediction cleared it.
	Threshold  float64       `json:"threshold"`
	ServedRows int           `json:"served_rows"`
	Targets    []TargetError `json:"targets"`

	// Model is the train-split model (not serialized with the result).
	Model *Model `json:"-"`
}

// TargetError returns the named target's error entry (nil if absent).
func (v *ValidateResult) TargetError(name string) *TargetError {
	for i := range v.Targets {
		if v.Targets[i].Name == name {
			return &v.Targets[i]
		}
	}
	return nil
}

// splitHash decides a row's split membership: a pure function of (key, seed),
// so the same corpus always splits identically and the held-out rows really
// are untouched by training.
func splitHash(key string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// Validate trains on a deterministic (1-holdFrac) split of the corpus and
// scores the model on the held-out remainder: cross-validated surrogate error
// against simulator ground truth the fit never saw. threshold is the
// confidence gate for the served metrics (0 selects DefaultThreshold).
func Validate(c *Corpus, holdFrac float64, seed uint64, threshold float64, topt TrainOptions) (*ValidateResult, error) {
	if len(c.Rows) == 0 {
		return nil, errNoRows
	}
	if holdFrac <= 0 || holdFrac >= 1 {
		return nil, fmt.Errorf("surrogate: hold fraction %v outside (0,1)", holdFrac)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	cut := uint64(holdFrac * float64(math.MaxUint64))
	var train, test []Row
	trainVocab := map[string]bool{}
	for _, r := range c.Rows {
		if splitHash(r.Key, seed) < cut {
			test = append(test, r)
		} else {
			train = append(train, r)
			trainVocab[r.Workload] = true
		}
	}
	if len(test) == 0 {
		return nil, fmt.Errorf("surrogate: hold fraction %v held out no rows (%d total)", holdFrac, len(c.Rows))
	}
	var vocab []string
	for _, w := range c.Vocab {
		if trainVocab[w] {
			vocab = append(vocab, w)
		}
	}
	trainCorpus := &Corpus{Rows: train, Vocab: vocab}
	m, err := Train(trainCorpus, topt)
	if err != nil {
		return nil, fmt.Errorf("surrogate: train split: %w", err)
	}
	v := &ValidateResult{TrainRows: len(train), Threshold: threshold, Model: m}
	sums := make([]float64, numTargets)
	sqLog := make([]float64, numTargets)
	worst := make([]float64, numTargets)
	servedSums := make([]float64, numTargets)
	servedWorst := make([]float64, numTargets)
	var buf PredictBuf
	for i := range test {
		r := &test[i]
		if !m.Featurizer().Knows(r.Workload) {
			v.SkippedVocab++
			continue
		}
		p := m.Predict(&buf, r.Cfg, r.Workload, r.Profile, r.SMT, r.Budget, r.Warmup)
		v.TestRows++
		served := p.RelStd <= threshold
		if served {
			v.ServedRows++
		}
		for t := 0; t < numTargets; t++ {
			truth := targetValue(r, t)
			pred := predValue(&p, t)
			if truth <= 0 {
				continue
			}
			pct := math.Abs(pred-truth) / truth * 100
			sums[t] += pct
			if pct > worst[t] {
				worst[t] = pct
			}
			dl := math.Log(math.Max(pred, 1e-12)) - math.Log(truth)
			sqLog[t] += dl * dl
			if served {
				servedSums[t] += pct
				if pct > servedWorst[t] {
					servedWorst[t] = pct
				}
			}
		}
	}
	if v.TestRows == 0 {
		return nil, fmt.Errorf("surrogate: every held-out row's workload is missing from the train split")
	}
	n := float64(v.TestRows)
	for t := 0; t < numTargets; t++ {
		te := TargetError{
			Name:   TargetNames[t],
			MAPE:   sums[t] / n,
			RMSLog: math.Sqrt(sqLog[t] / n),
			Worst:  worst[t],
		}
		if v.ServedRows > 0 {
			te.ServedMAPE = servedSums[t] / float64(v.ServedRows)
			te.ServedWorst = servedWorst[t]
		}
		v.Targets = append(v.Targets, te)
	}
	return v, nil
}

// predValue extracts target t from a prediction in natural space.
func predValue(p *Prediction, t int) float64 {
	switch t {
	case tCPI:
		return p.CPI
	case tPower:
		return p.Power
	case tClock:
		return p.Clock
	case tSwitching:
		return p.Switching
	case tArray:
		return p.Array
	default:
		return p.Leakage
	}
}
