package power10sim_test

// The benchmark harness: one benchmark per paper table/figure. Each runs the
// corresponding experiment at reduced ("quick") budgets and reports the
// headline metrics the paper quotes, so `go test -bench=. -benchmem`
// regenerates the whole evaluation.

import (
	"testing"

	"power10sim/internal/experiments"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/simobs"
	"power10sim/internal/surrogate"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

var quick = experiments.Options{Quick: true}

// benchSweep runs a representative multi-figure slice of the evaluation
// (Table I followed by the Section II-B headline, which revisit the same
// P9/P10 SPECint baseline points) through a dedicated simulation pool. A
// fresh pool per iteration means each iteration pays for its own unique
// simulations, so the Serial-vs-Parallel timing ratio isolates the
// worker-pool speedup while the hit metric shows the memoization win.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pool := runner.New(workers)
		o := experiments.Options{Quick: true, Runner: pool}
		if _, err := experiments.TableI(o); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Headline(o); err != nil {
			b.Fatal(err)
		}
		st := pool.Stats()
		b.ReportMetric(float64(st.Misses), "unique-runs")
		b.ReportMetric(float64(st.Hits), "cache-hits")
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchSweep(b, 0) }

// benchCore times one raw core simulation; the Off/On pair below is the
// guard proving the disabled-telemetry path (the default for every
// experiment sweep) adds no measurable overhead to uarch simulation —
// sampling is a nil-checked option, not a hot-loop tax.
func benchCore(b *testing.B, cfg *uarch.Config, opts ...uarch.SimOption) {
	b.Helper()
	w := workloads.Daxpy(4096, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)}
		res, err := uarch.Simulate(cfg, streams, 10_000_000, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Activity.Cycles), "cycles")
	}
}

func BenchmarkCoreTelemetryOff(b *testing.B) {
	benchCore(b, uarch.POWER10())
}

func BenchmarkCoreTelemetryOn(b *testing.B) {
	cfg := uarch.POWER10()
	tr := telemetry.NewTracer()
	benchCore(b, cfg, simobs.SampleOption(cfg, tr, 1000, 1))
}

// BenchmarkCoreInjectionOff is the zero-rate guard for the fault-injection
// hook: with a nil upset (the default for every performance sweep) the only
// added work is one nil check per cycle, so this must track
// BenchmarkCoreTelemetryOff within noise.
func BenchmarkCoreInjectionOff(b *testing.B) {
	benchCore(b, uarch.POWER10(), uarch.WithUpset(nil))
}

// BenchmarkCoreP10 is the steady-state hot-loop benchmark: one stream and
// one Result reused across iterations via SimulateInto, so after the warmup
// run the measured loop exercises the wakeup scheduler, the core pool and
// the in-place VM reset with zero allocations per simulation. The perf
// ledger (cmd/p10perf) enforces allocs/op == 0 on this benchmark.
func BenchmarkCoreP10(b *testing.B) {
	cfg := uarch.POWER10()
	w := workloads.Daxpy(4096, 12)
	stream := trace.NewVMStream(w.Prog, w.Budget)
	streams := []trace.Stream{stream}
	var res uarch.Result
	// Warmup: touch the VM's memory footprint and populate the core pool.
	if err := uarch.SimulateInto(&res, cfg, streams, 10_000_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		if err := uarch.SimulateInto(&res, cfg, streams, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Activity.Cycles), "cycles")
}

// BenchmarkVMStream is the functional-layer benchmark: the daxpy-200 trace
// (2.46M instructions) drained through one VMStream, reset between
// iterations, with no timing model attached. It isolates the VM's
// per-instruction cost — opcode dispatch and memory access — that sampled
// runs, trace capture and functional warming all pay. Like BenchmarkCoreP10
// it must stay allocation-free: the reset VM reuses its memory pages.
func BenchmarkVMStream(b *testing.B) {
	w := workloads.Daxpy(4096, 200)
	stream := trace.NewVMStream(w.Prog, w.Budget)
	drain := func() uint64 {
		var n uint64
		for {
			if _, ok := stream.Next(); !ok {
				break
			}
			n++
		}
		if err := stream.Err(); err != nil {
			b.Fatal(err)
		}
		return n
	}
	// Warmup: touch the VM's memory footprint.
	insts := drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkCoreP10Sampled times the SimPoint-style estimator end to end
// (featurize, cluster, simulate representative windows, extrapolate) on a
// long daxpy run — the regime interval sampling exists for. The speedup-x
// metric is effective speedup (total instructions over timing-simulated
// instructions); the perf ledger tracks both it and the wall time so a
// regression in either the estimator's cost or its selectivity shows up.
func BenchmarkCoreP10Sampled(b *testing.B) {
	cfg := uarch.POWER10()
	w := workloads.Daxpy(4096, 400)
	spec := sampling.DefaultSpec()
	b.ReportAllocs()
	b.ResetTimer()
	var est *sampling.Estimate
	for i := 0; i < b.N; i++ {
		var err error
		est, err = sampling.Run(cfg, w.Prog, w.Budget, w.Warmup, 1, 10_000_000, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(est.Meta.Speedup(), "speedup-x")
	b.ReportMetric(float64(est.Meta.Windows), "windows")
}

// BenchmarkSurrogatePredict times the surrogate's steady-state prediction
// path — the per-point cost p10explore pays to rank a design point before
// deciding which to simulate. The model is
// trained once on a synthetic corpus (all cost in the surrogate, none in
// the simulator); the timed loop is a single warmed Predict call, which
// must stay allocation-free like the core hot loop.
func BenchmarkSurrogatePredict(b *testing.B) {
	c := surrogate.SyntheticCorpus(480, 1)
	m, err := surrogate.Train(c, surrogate.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := &c.Rows[0]
	var buf surrogate.PredictBuf
	// Warmup sizes the buffer's scratch slices.
	p := m.Predict(&buf, r.Cfg, r.Workload, r.Profile, r.SMT, r.Budget, r.Warmup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = m.Predict(&buf, r.Cfg, r.Workload, r.Profile, r.SMT, r.Budget, r.Warmup)
	}
	b.StopTimer()
	b.ReportMetric(p.RelStd*100, "relstd-%")
}

// BenchmarkSurrogateTrain times one full surrogate training on the same
// synthetic corpus BenchmarkSurrogatePredict serves from: forward-selected
// global and per-workload ridge fits for every target, then the conformal
// calibration folds, each of which trains again.
func BenchmarkSurrogateTrain(b *testing.B) {
	c := surrogate.SyntheticCorpus(480, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surrogate.Train(c, surrogate.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Headline.PerfPerWatt, "perf/W-gain")
		b.ReportMetric(r.SocketEfficiency, "socket-eff")
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Headline(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpeedupST, "speedup-ST")
		b.ReportMetric(r.PowerRatio, "power-ratio")
		b.ReportMetric(r.FlushReduction*100, "flush-red-%")
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Optima[len(r.Optima)-1]), "optimal-FO4")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(quick)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, g := range r.GainSMT8 {
			sum += g
		}
		b.ReportMetric(sum*100, "sum-gain-%")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[1].RelFlops, "P10-VSU-x")
		b.ReportMetric(r.Rows[2].RelFlops, "P10-MMA-x")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Models[0].Rows[2].Speedup, "resnet-mma-x")
		b.ReportMetric(r.Models[1].Rows[2].Speedup, "bert-mma-x")
		b.ReportMetric(r.SocketINT8["ResNet-50"], "socket-int8-x")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(quick)
		if err != nil {
			b.Fatal(err)
		}
		var memBound int
		for _, p := range r.Points {
			if p.MemBound {
				memBound++
			}
		}
		b.ReportMetric(float64(memBound), "mem-bound-wl")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Curves["ols"][24], "err-at-24-inputs-%")
	}
}

// BenchmarkModelFits times the power-model fit layer on its own: Fig. 11's
// four error curves, Fig. 12's top-down and bottom-up fits, and Fig. 15(a)'s
// accuracy curve and 16-counter design. The quick model corpus is collected
// once, outside the timer; BenchmarkFig11 and its siblings pay for the
// collection in every iteration.
func BenchmarkModelFits(b *testing.B) {
	ds, err := experiments.ModelDataset(uarch.POWER10(), quick)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11Fits(ds); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig12Fits(ds); err != nil {
			b.Fatal(err)
		}
		if _, _, err := experiments.Fig15aFits(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ds.Samples)), "samples")
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanAbsDiffPct, "model-diff-%")
		b.ReportMetric(float64(r.BottomUpEvents), "events")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Reports)), "testcases")
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((r.P10.RuntimeDerating[90]-r.P9.RuntimeDerating[90])*100, "gap-VT90-%")
	}
}

func BenchmarkFig15a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SelectedError, "proxy-err-%")
	}
}

func BenchmarkFig15b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ErrorByGranularity[50], "err-50cyc-%")
		b.ReportMetric(r.ErrorByGranularity[10], "err-10cyc-%")
	}
}

func BenchmarkProxyExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ProxyStats(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TotalProxies), "proxies")
		b.ReportMetric(r.MeanCoverage*100, "coverage-%")
	}
}

func BenchmarkAPEXSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.APEXSpeedup(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "speedup-x")
	}
}

func BenchmarkWOF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WOF(quick)
		if err != nil {
			b.Fatal(err)
		}
		var maxBoost float64
		for _, row := range r.Rows {
			if row.Boost > maxBoost {
				maxBoost = row.Boost
			}
		}
		b.ReportMetric(maxBoost, "max-boost-x")
	}
}

func BenchmarkSocket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Socket(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Efficiency.Gain, "socket-eff-x")
		b.ReportMetric(r.CLY15of16*100, "CLY-%")
	}
}
