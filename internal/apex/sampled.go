package apex

import (
	"errors"
	"fmt"

	"power10sim/internal/isa"
	"power10sim/internal/power"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
)

// SampledExtract composes the APEX batch-extraction flow with the
// interval-sampling engine: instead of draining the LFSR instrumentation over
// the whole trace, only the representative windows chosen by the sampling
// plan are simulated (and instrumented), and the whole-run activity is the
// sampling extrapolation. The two speedups compound — the Awan platform's
// hardware parallelism per simulated cycle, and the sampling engine's
// reduction in cycles that need simulating at all.
//
// Extraction batches cover everything the timing model executes (window
// warmup prefixes included, exactly like a full Extract under
// uarch.WithWarmup), so the on-the-fly-vs-reference power identity holds
// batch by batch. Total, in contrast, is the extrapolated whole-run activity
// from the sampling estimate, which is also returned for its confidence
// intervals and plan metadata.
func SampledExtract(cfg *uarch.Config, prog *isa.Program, budget, warmup uint64, smt int, intervalCycles, maxCycles uint64, spec sampling.Spec) (*Run, *sampling.Estimate, error) {
	if intervalCycles == 0 {
		return nil, nil, errors.New("apex: zero extraction interval")
	}
	model := power.NewModel(cfg)
	run := &Run{Config: cfg}
	run.SignalsTracked = len(model.Latch.Buckets) + len(uarch.CounterNames)

	// The representative windows run sequentially, so the batch hook needs no
	// locking; the LFSR carries across windows like one long extraction run.
	instLFSR := NewLFSR()
	var prevInst uint64
	var cbErr error
	var measCycles uint64
	epochs := uarch.WithSampler(intervalCycles, func(s uarch.CycleSample) {
		d := s.Delta
		instLFSR.TickN(d.Instructions)
		got, err := instLFSR.Decode()
		if err == nil {
			want := (prevInst + d.Instructions) % LFSRPeriod
			if got != want {
				err = fmt.Errorf("apex: LFSR decode mismatch: %d != %d", got, want)
			}
		}
		if err != nil && cbErr == nil {
			cbErr = err
		}
		prevInst = (prevInst + d.Instructions) % LFSRPeriod

		start := uint64(0)
		if n := len(run.Extractions); n > 0 {
			start = run.Extractions[n-1].CycleEnd
		}
		run.Extractions = append(run.Extractions, Extraction{
			CycleStart: start,
			CycleEnd:   start + d.Cycles,
			Activity:   d,
			Power:      model.Report(&d),
		})
		measCycles += d.Cycles
	})

	est, err := sampling.Run(cfg, prog, budget, warmup, smt, maxCycles, spec, epochs)
	if err != nil {
		return nil, nil, err
	}
	if cbErr != nil {
		return nil, nil, cbErr
	}
	run.Total = est.Activity

	// Work accounting mirrors Extract: software RTLSim would evaluate every
	// latch on every cycle of the WHOLE run (the extrapolated cycle count),
	// while the accelerated platform pays only for the cycles the windows
	// actually simulate plus the batch drains.
	latches := uint64(model.Latch.TotalLatches())
	run.RTLSimWork = est.Activity.Cycles * latches
	run.APEXWork = measCycles*(latches/awanParallelism+1) +
		uint64(len(run.Extractions))*uint64(run.SignalsTracked)
	return run, est, nil
}
