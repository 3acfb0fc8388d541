package surrogate

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/workloads"
)

// ExploreOptions configures a design-space exploration.
type ExploreOptions struct {
	// Points is the design-space size, Seed its generator seed.
	Points int
	Seed   uint64
	// Workload is the program every point is evaluated on.
	Workload *workloads.Workload
	// Budget/Warmup/MaxCycles shape the hypothetical simulation requests
	// (and the fallback real simulations).
	Budget    uint64
	Warmup    uint64
	MaxCycles uint64
	// MaxSims caps the active-learning loop: at most this many of the most
	// uncertain points are simulated for real, appended to the training set,
	// and the model retrained before the final prediction pass. 0 disables
	// the loop (pure prediction).
	MaxSims int
	// Runner executes the fallback simulations (required when MaxSims > 0).
	// Attach its ledger/caches before calling; explorer simulations flow
	// through the memo and disk caches like any other request.
	Runner *runner.Runner
	// Corpus is the training corpus behind Model — the retraining base.
	// Required when MaxSims > 0.
	Corpus *Corpus
	// Train parameterizes the retraining fit.
	Train TrainOptions
	// Rank is "epi" (energy per instruction, ascending — equivalently
	// descending perf-per-watt, since perf/watt = 1/EPI) or "cpi".
	Rank string
	// Threshold is the confidence gate WithinGate counts against
	// (0 selects DefaultThreshold).
	Threshold float64
	// TopK bounds the ranked result list (0 = all points).
	TopK int
}

// PointResult is one explored point's outcome.
type PointResult struct {
	Index int
	Name  string
	SMT   int
	CPI   float64
	Power float64
	EPI   float64
	// EPILo/EPIHi are the 95% confidence bounds (multiplicative, from the
	// combined log-space std). Collapsed to the point value for simulated
	// points.
	EPILo, EPIHi float64
	// RelStd is the prediction's confidence-gate scalar; 0 for simulated.
	RelStd float64
	// Simulated marks points whose values are real simulation output (the
	// active-learning fallbacks), not predictions.
	Simulated bool
}

// ExploreResult is a ranked design-space sweep.
type ExploreResult struct {
	// Model is the model that produced the final predictions (the retrained
	// one when the active-learning loop ran).
	Model *Model
	// Ranked is the rank-ordered point list (TopK-bounded).
	Ranked []PointResult
	// Total is the design-space size; Simulated counts real fallback
	// simulations; SimFailed counts fallbacks that errored (their points
	// keep predictions).
	Total     int
	Simulated int
	SimFailed int
	Retrained bool
	// MeanRelStd / MaxRelStd summarize the final prediction pass's
	// uncertainty over non-simulated points; WithinGate counts the predicted
	// points whose RelStd clears Options.Threshold — the share of the space
	// ranked on a served prediction, without any simulation.
	MeanRelStd float64
	MaxRelStd  float64
	WithinGate int
}

// Explore sweeps a generated design space through the surrogate: predict
// every point, simulate only the MaxSims most uncertain ones for real,
// retrain on the enlarged corpus, re-predict, and rank. The returned order
// is deterministic: the space is a pure function of (Points, Seed), the
// model of the corpus, and ties rank by point index.
func Explore(m *Model, opt ExploreOptions) (*ExploreResult, error) {
	if opt.Points <= 0 {
		return nil, errors.New("surrogate: explore needs Points > 0")
	}
	if opt.Workload == nil || opt.Workload.Prog == nil {
		return nil, errors.New("surrogate: explore needs a workload")
	}
	if !m.Featurizer().Knows(opt.Workload.Name) {
		return nil, fmt.Errorf("surrogate: workload %q not in the model's training vocabulary", opt.Workload.Name)
	}
	profile, err := sampling.Profile(opt.Workload.Prog, ProfileBudget)
	if err != nil {
		return nil, fmt.Errorf("surrogate: profile %s: %w", opt.Workload.Name, err)
	}
	pts := Space(opt.Points, opt.Seed)
	res := &ExploreResult{Model: m, Total: len(pts)}

	predictAll := func(model *Model) []Prediction {
		out := make([]Prediction, len(pts))
		var buf PredictBuf
		for i, p := range pts {
			out[i] = model.Predict(&buf, p.Cfg, opt.Workload.Name, profile, p.SMT, opt.Budget, opt.Warmup)
		}
		return out
	}
	preds := predictAll(m)

	// Active learning: spend the simulation budget on the points the model
	// is least sure about, fold the measurements into the corpus, retrain,
	// and re-predict everything with the improved model.
	simulated := map[int]Row{}
	if opt.MaxSims > 0 {
		if opt.Runner == nil || opt.Corpus == nil {
			return nil, errors.New("surrogate: MaxSims > 0 needs a Runner and the training Corpus")
		}
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if preds[order[a]].RelStd != preds[order[b]].RelStd {
				return preds[order[a]].RelStd > preds[order[b]].RelStd
			}
			return order[a] < order[b]
		})
		n := opt.MaxSims
		if n > len(order) {
			n = len(order)
		}
		picks := append([]int(nil), order[:n]...)
		sort.Ints(picks) // request order is deterministic and index-sorted
		reqs := make([]runner.Request, len(picks))
		for j, i := range picks {
			reqs[j] = runner.Request{
				Cfg:       pts[i].Cfg,
				W:         opt.Workload,
				SMT:       pts[i].SMT,
				Budget:    opt.Budget,
				Warmup:    opt.Warmup,
				MaxCycles: opt.MaxCycles,
			}
		}
		results := opt.Runner.RunAll(reqs)
		rows := append([]Row(nil), opt.Corpus.Rows...)
		for j, rr := range results {
			i := picks[j]
			if rr.Err != nil || rr.Activity == nil || rr.Report == nil ||
				rr.Activity.Instructions == 0 || rr.Activity.Cycles == 0 {
				res.SimFailed++
				continue
			}
			key, _ := runner.ContentKey(reqs[j])
			row := Row{
				Key:            key,
				Config:         pts[i].Cfg.Name,
				Workload:       opt.Workload.Name,
				SMT:            pts[i].SMT,
				Budget:         opt.Budget,
				Warmup:         opt.Warmup,
				Cfg:            pts[i].Cfg,
				Profile:        profile,
				CPI:            rr.Activity.CPI(),
				Power:          rr.Report.Total,
				PowerClock:     rr.Report.Clock,
				PowerSwitching: rr.Report.Switching,
				PowerArray:     rr.Report.Array,
				PowerLeakage:   rr.Report.Leakage,
			}
			simulated[i] = row
			rows = append(rows, row)
			res.Simulated++
		}
		if res.Simulated > 0 {
			grown := &Corpus{Rows: rows, Vocab: opt.Corpus.Vocab}
			// The retrained model is ephemeral — it sharpens this sweep's
			// final table and is never saved or served — so skip the k-fold
			// conformal pass: within a single workload calibration scales
			// every std by one factor, which cannot reorder the uncertainty
			// ranking acquisition uses. Servable models come from Train on
			// the enriched ledger, which calibrates.
			topt := opt.Train
			topt.noCalibration = true
			m2, err := Train(grown, topt)
			if err != nil {
				return nil, fmt.Errorf("surrogate: retrain after %d fallback sims: %w", res.Simulated, err)
			}
			res.Model = m2
			res.Retrained = true
			preds = predictAll(m2)
		}
	}

	threshold := opt.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	out := make([]PointResult, len(pts))
	var sum float64
	predicted := 0
	for i, p := range pts {
		pr := PointResult{Index: i, Name: p.Cfg.Name, SMT: p.SMT}
		if row, ok := simulated[i]; ok {
			pr.CPI = row.CPI
			pr.Power = row.Power
			pr.EPI = row.Power * row.CPI
			pr.EPILo, pr.EPIHi = pr.EPI, pr.EPI
			pr.Simulated = true
		} else {
			pd := preds[i]
			pr.CPI = pd.CPI
			pr.Power = pd.Power
			pr.EPI = pd.EPI
			ci := math.Exp(1.96 * pd.EPIStd)
			pr.EPILo = pd.EPI / ci
			pr.EPIHi = pd.EPI * ci
			pr.RelStd = pd.RelStd
			sum += pd.RelStd
			predicted++
			if pd.RelStd <= threshold {
				res.WithinGate++
			}
			if pd.RelStd > res.MaxRelStd {
				res.MaxRelStd = pd.RelStd
			}
		}
		out[i] = pr
	}
	if predicted > 0 {
		res.MeanRelStd = sum / float64(predicted)
	}
	rank := opt.Rank
	if rank == "" {
		rank = "epi"
	}
	metric := func(p *PointResult) float64 { return p.EPI }
	if rank == "cpi" {
		metric = func(p *PointResult) float64 { return p.CPI }
	}
	sort.SliceStable(out, func(a, b int) bool {
		ma, mb := metric(&out[a]), metric(&out[b])
		if ma != mb {
			return ma < mb
		}
		return out[a].Index < out[b].Index
	})
	if opt.TopK > 0 && opt.TopK < len(out) {
		out = out[:opt.TopK]
	}
	res.Ranked = out
	return res, nil
}
