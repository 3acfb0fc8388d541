package experiments

import (
	"fmt"
	"sort"

	"power10sim/internal/pmgmt"
	"power10sim/internal/powermodel"
	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// ---------------------------------------------------------------------------
// Fig. 15(a)/(b): Core Power Proxy
// ---------------------------------------------------------------------------

// Fig15Result is the proxy design-space study.
type Fig15Result struct {
	// AccuracyByCounters is Fig. 15(a): active-power error (%) vs counter
	// budget under hardware constraints.
	AccuracyByCounters map[int]float64
	// SelectedCounters is the final 16-counter design's input list.
	SelectedCounters []string
	// SelectedError is its active-power error (%).
	SelectedError float64
	// ErrorByGranularity is Fig. 15(b): total-power error (%) vs
	// prediction window in cycles.
	ErrorByGranularity map[uint64]float64
}

// Fig15 designs the power proxy and evaluates both accuracy curves.
func Fig15(o Options) (*Fig15Result, error) {
	cfg := uarch.POWER10()
	w := workloads.Compress()
	// Fingerprint the full input set: the corpus identity plus the
	// granularity workload and its scaled budget (the corpus fingerprint
	// alone would miss a budget change to the Fig. 15(b) replay).
	_, _, fp := modelInputs(cfg, o)
	fp += fmt.Sprintf("|gran=%s|budget=%d", runner.WorkloadFingerprint(w), o.scale(w.Budget))
	return runner.CachedJSON(o.pool(), "fig15", fp, func() (*Fig15Result, error) {
		ds, err := ModelDataset(cfg, o)
		if err != nil {
			return nil, err
		}
		curve, px, err := Fig15aFits(ds)
		if err != nil {
			return nil, err
		}
		gran, err := pmgmt.GranularityError(px, cfg, trace.NewVMStream(w.Prog, o.scale(w.Budget)),
			[]uint64{10, 25, 50, 100, 500, 2000, 10000}, ds.IdleFloor)
		if err != nil {
			return nil, err
		}
		return &Fig15Result{
			AccuracyByCounters: curve,
			SelectedCounters:   px.Counters,
			SelectedError:      px.ActiveError,
			ErrorByGranularity: gran,
		}, nil
	})
}

// Fig15aFits designs the proxy on a model corpus: Fig. 15(a)'s accuracy
// curve over counter budgets and the selected 16-counter design, both read
// off one selection path.
func Fig15aFits(ds *powermodel.Dataset) (map[int]float64, *pmgmt.Proxy, error) {
	proxies, err := pmgmt.AccuracyCurve(ds, []int{2, 4, 8, 16, 24})
	if err != nil {
		return nil, nil, err
	}
	curve := map[int]float64{}
	for n, p := range proxies {
		curve[n] = p.ActiveError
	}
	return curve, proxies[16], nil
}

// Table renders Fig. 15.
func (r *Fig15Result) Table() string {
	t := &table{header: []string{"counters", "active-power error"}}
	for _, n := range sortedKeys(r.AccuracyByCounters) {
		t.add(fmt.Sprintf("%d", n), f2(r.AccuracyByCounters[n])+"%")
	}
	out := t.String()
	out += fmt.Sprintf("selected 16-counter proxy: %.1f%% active error (paper 9.8%%; <5%% incl. static)\n", r.SelectedError)
	out += "counters: "
	for i, c := range r.SelectedCounters {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	out += "\n\n"
	t2 := &table{header: []string{"window (cycles)", "total-power error"}}
	var wins []uint64
	for w := range r.ErrorByGranularity {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(a, b int) bool { return wins[a] < wins[b] })
	for _, w := range wins {
		t2.add(fmt.Sprintf("%d", w), f2(r.ErrorByGranularity[w])+"%")
	}
	out += t2.String() + "paper Fig. 15(b): near-best accuracy at >=50-cycle windows, degrading sharply below\n"
	return out
}

// ---------------------------------------------------------------------------
// WOF and throttling (Sections IV-A/IV-B)
// ---------------------------------------------------------------------------

// WOFRow is one workload's boost entry.
type WOFRow struct {
	Workload    string
	EffCapRatio float64
	Boost       float64
}

// WOFResult is the workload-optimized-frequency study.
type WOFResult struct {
	Rows []WOFRow
	// DDS droop-mitigation summary on a phase-change workload.
	DroopWithout, DroopWith pmgmt.DroopReport
}

// WOF characterizes the envelope with the MMA stressmark and computes each
// workload's deterministic boost, then exercises the droop sensor on a
// current series with an abrupt phase change.
func WOF(o Options) (*WOFResult, error) {
	cfg := uarch.POWER10()
	_, stressRep, err := RunOn(cfg, workloads.Stressmark(true), 1, o)
	if err != nil {
		return nil, err
	}
	wof := pmgmt.NewWOF(stressRep)
	res := &WOFResult{}
	ws := append(workloads.SPECintSuite(), workloads.Stressmark(true), workloads.ActiveIdle())
	reqs := make([]runner.Request, len(ws))
	for i, w := range ws {
		reqs[i] = o.request(cfg, w, 1)
	}
	batch, err := runBatch(o, reqs)
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		rep := batch[i].Report
		res.Rows = append(res.Rows, WOFRow{
			Workload:    w.Name,
			EffCapRatio: wof.EffCapRatio(rep),
			Boost:       wof.Boost(rep),
		})
	}
	// Droop study: a quiet phase followed by the stressmark's current
	// profile creates the abrupt activity swing of Section IV-B.
	stress := workloads.Stressmark(true)
	series, err := pmgmt.CurrentSeries(cfg, func() trace.Stream {
		return trace.NewVMStream(stress.Prog, o.scale(stress.Budget))
	}, 200, maxSimCycles)
	if err != nil {
		return nil, err
	}
	// Normalize the current series to the droop model's design scale (the
	// stressmark swings the rail to ~2.2x the unit current) and prepend a
	// quiet phase to create the abrupt swing.
	var peak float64
	for _, v := range series {
		if v > peak {
			peak = v
		}
	}
	if peak > 0 {
		for i := range series {
			series[i] *= 2.5 / peak
		}
	}
	quiet := make([]float64, 40)
	for i := range quiet {
		quiet[i] = 0.2
	}
	series = append(quiet, series...)
	dds := pmgmt.DefaultDDS()
	res.DroopWithout = dds.SimulateDroop(series, false)
	res.DroopWith = dds.SimulateDroop(series, true)
	return res, nil
}

// Table renders the WOF study.
func (r *WOFResult) Table() string {
	t := &table{header: []string{"workload", "effcap ratio", "WOF boost"}}
	rows := append([]WOFRow{}, r.Rows...)
	sort.Slice(rows, func(a, b int) bool { return rows[a].Boost > rows[b].Boost })
	for _, row := range rows {
		t.add(row.Workload, f2(row.EffCapRatio), fmt.Sprintf("%.3fx", row.Boost))
	}
	out := t.String()
	out += fmt.Sprintf("DDS: violations %d -> %d, min margin %.3f -> %.3f, firings %d, throttled slots %d\n",
		r.DroopWithout.Violations, r.DroopWith.Violations,
		r.DroopWithout.MinMargin, r.DroopWith.MinMargin,
		r.DroopWith.SensorFirings, r.DroopWith.ThrottledSlots)
	return out
}
