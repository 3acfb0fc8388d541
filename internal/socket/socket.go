// Package socket models the chip- and socket-level aggregation the paper's
// headline claims are stated at: 15 functional SMT8 cores per 7nm die (from
// 16 fabricated, one spare), single- or dual-chip sockets, shared L3 and
// uncore power, Workload Optimized Frequency at the socket envelope, and the
// Power/Frequency-Limited Yield (PFLY) and Core-Limited Yield (CLY) analyses
// that the APEX absolute-power projections feed (Sections III-C and IV-A).
//
// Process variation is modelled per fabricated core with a deterministic
// pseudo-random draw: a maximum-frequency scale and a leakage factor. Yield
// questions are then Monte Carlo estimates over simulated dies.
package socket

import (
	"errors"
	"math"

	"power10sim/internal/power"
	"power10sim/internal/runner"
)

// Config describes a socket offering.
type Config struct {
	Name string
	// FabricatedCores per chip (16 on the POWER10 die).
	FabricatedCores int
	// FunctionalCores sold per chip (15: one spare for yield).
	FunctionalCores int
	// ChipsPerSocket: 1 (single-chip) or 2 (dual-chip module).
	ChipsPerSocket int
	// UncorePower is the per-chip non-core power (L3, interconnect, OMI,
	// PowerAXON) at nominal V/F, in core-power units.
	UncorePower float64
	// TDP is the socket power envelope in the same units.
	TDP float64
	// Variation parameters: per-core fmax spread (sigma of the
	// lognormal-ish draw) and leakage spread.
	FmaxSigma float64
	LeakSigma float64
	// DefectRate is the probability a fabricated core is non-functional.
	DefectRate float64
}

// POWER10Socket returns the paper's dual-chip 15-core-per-chip offering.
func POWER10Socket() Config {
	return Config{
		Name:            "POWER10-DCM",
		FabricatedCores: 16,
		FunctionalCores: 15,
		ChipsPerSocket:  2,
		UncorePower:     5.5,
		TDP:             24,
		FmaxSigma:       0.045,
		LeakSigma:       0.12,
		DefectRate:      0.035,
	}
}

// POWER9Socket returns the prior-generation 12-core single-chip reference.
func POWER9Socket() Config {
	return Config{
		Name:            "POWER9-SCM",
		FabricatedCores: 12,
		FunctionalCores: 12,
		ChipsPerSocket:  1,
		UncorePower:     4.0,
		TDP:             18,
		FmaxSigma:       0.05,
		LeakSigma:       0.14,
		DefectRate:      0.03,
	}
}

// Core is one fabricated core's silicon outcome.
type Core struct {
	Functional bool
	// FmaxScale is the core's maximum frequency relative to nominal.
	FmaxScale float64
	// LeakFactor scales the core's leakage power.
	LeakFactor float64
}

// Die is one simulated chip.
type Die struct {
	Cores []Core
}

// rng is a small deterministic generator (split-mix style).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// uniform returns a float in [0, 1).
func (r *rng) uniform() float64 { return float64(r.next()>>11) / (1 << 53) }

// gauss returns a standard normal deviate (sum-of-uniforms approximation,
// deterministic and fast).
func (r *rng) gauss() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.uniform()
	}
	return s - 6
}

// SimulateDie fabricates one die deterministically from a seed.
func SimulateDie(cfg Config, seed uint64) Die {
	r := &rng{s: seed*2654435761 + 1}
	die := Die{Cores: make([]Core, cfg.FabricatedCores)}
	for i := range die.Cores {
		c := &die.Cores[i]
		c.Functional = r.uniform() >= cfg.DefectRate
		c.FmaxScale = math.Exp(cfg.FmaxSigma * r.gauss())
		c.LeakFactor = math.Exp(cfg.LeakSigma * r.gauss())
	}
	return die
}

// GoodCores returns the number of functional cores on the die.
func (d *Die) GoodCores() int {
	n := 0
	for _, c := range d.Cores {
		if c.Functional {
			n++
		}
	}
	return n
}

// sortScale returns the frequency the die can be sorted at: the
// FunctionalCores-th best core's fmax (spares absorb the slowest cores).
func sortScale(cfg Config, d *Die) (float64, bool) {
	var f []float64
	for _, c := range d.Cores {
		if c.Functional {
			f = append(f, c.FmaxScale)
		}
	}
	if len(f) < cfg.FunctionalCores {
		return 0, false
	}
	// Select the FunctionalCores highest fmax values; the minimum of the
	// kept set limits the sort.
	for i := 0; i < cfg.FunctionalCores; i++ {
		for j := i + 1; j < len(f); j++ {
			if f[j] > f[i] {
				f[i], f[j] = f[j], f[i]
			}
		}
	}
	return f[cfg.FunctionalCores-1], true
}

// CLY estimates Core-Limited Yield: the fraction of dies with at least
// FunctionalCores functional cores, over trials simulated dies.
func CLY(cfg Config, trials int) float64 { return CLYJobs(cfg, trials, 1) }

// CLYJobs is CLY with the Monte Carlo trials fanned across up to jobs
// goroutines. Every trial is seeded by its index, so the estimate is
// identical for any jobs value.
func CLYJobs(cfg Config, trials, jobs int) float64 {
	if trials <= 0 {
		return 0
	}
	counts := make([]int, trials)
	runner.ForEach(jobs, trials, func(t int) {
		d := SimulateDie(cfg, uint64(t)+1)
		if d.GoodCores() >= cfg.FunctionalCores {
			counts[t] = 1
		}
	})
	good := 0
	for _, c := range counts {
		good += c
	}
	return float64(good) / float64(trials)
}

// SocketPower computes socket power at a frequency scale s for a per-core
// workload power report: dynamic scales ~ s^3 (voltage tracks frequency),
// leakage ~ s with per-core leak factors, plus per-chip uncore power.
func SocketPower(cfg Config, rep *power.Report, dies []Die, s float64) float64 {
	var total float64
	for di := range dies {
		d := &dies[di]
		counted := 0
		// The best FunctionalCores cores are enabled.
		type ci struct{ fmax, leak float64 }
		var cores []ci
		for _, c := range d.Cores {
			if c.Functional {
				cores = append(cores, ci{c.FmaxScale, c.LeakFactor})
			}
		}
		// Highest-fmax-first selection.
		for i := range cores {
			for j := i + 1; j < len(cores); j++ {
				if cores[j].fmax > cores[i].fmax {
					cores[i], cores[j] = cores[j], cores[i]
				}
			}
		}
		for _, c := range cores {
			if counted >= cfg.FunctionalCores {
				break
			}
			total += rep.EffCap*s*s*s + rep.Leakage*c.leak*s
			counted++
		}
		total += cfg.UncorePower * s * s
	}
	return total
}

// PFLY estimates Power/Frequency-Limited Yield: among sockets built from
// dies that already passed core sorting (core-count loss is CLY's domain),
// the fraction that can run the given workload at frequency scale s within
// both the TDP and every enabled core's fmax.
func PFLY(cfg Config, rep *power.Report, s float64, trials int) float64 {
	return PFLYJobs(cfg, rep, s, trials, 1)
}

// build is one seeded socket build, made once per call and then tested
// at every frequency scale the call asks about.
type build struct {
	dies []Die
	// screened marks a build with a die too short of cores to sort.
	screened bool
	// scale is the slowest die's sort scale: the build runs at s only if
	// no die sorts below it.
	scale float64
}

// buildTrials makes trials seeded socket builds, fanned across up to jobs
// goroutines. A screened build stops at its first short die.
func buildTrials(cfg Config, trials, jobs int) []build {
	if trials <= 0 {
		return nil
	}
	builds := make([]build, trials)
	runner.ForEach(jobs, trials, func(t int) {
		b := &builds[t]
		b.dies = make([]Die, cfg.ChipsPerSocket)
		b.scale = math.Inf(1)
		for ci := range b.dies {
			b.dies[ci] = SimulateDie(cfg, uint64(t*cfg.ChipsPerSocket+ci)+1)
			fs, enough := sortScale(cfg, &b.dies[ci])
			if !enough {
				b.screened = true
				return
			}
			b.scale = min(b.scale, fs)
		}
	})
	return builds
}

// pflyAt is the PFLY of builds at frequency scale s: the passing share of
// the builds the core screen kept.
func pflyAt(cfg Config, rep *power.Report, builds []build, s float64) float64 {
	pass, eligible := 0, 0
	for i := range builds {
		b := &builds[i]
		if b.screened {
			continue
		}
		eligible++
		if b.scale >= s && SocketPower(cfg, rep, b.dies, s) <= cfg.TDP {
			pass++
		}
	}
	if eligible == 0 {
		return 0
	}
	return float64(pass) / float64(eligible)
}

// PFLYJobs is PFLY with trials fanned across up to jobs goroutines; results
// are identical for any jobs value because every trial is seeded by index.
func PFLYJobs(cfg Config, rep *power.Report, s float64, trials, jobs int) float64 {
	return pflyAt(cfg, rep, buildTrials(cfg, trials, jobs), s)
}

// Sort-point search range, in hundredths of nominal frequency.
const sortStepLo, sortStepHi = 70, 140

// SortPointJobs finds the highest frequency scale (in steps of 0.01 from
// 0.70 to 1.40) with at least the target PFLY — how a deterministic product
// sort is chosen. The trials are built once, across up to jobs goroutines,
// and the steps are tested against those builds from the top down.
func SortPointJobs(cfg Config, rep *power.Report, targetYield float64, trials, jobs int) float64 {
	builds := buildTrials(cfg, trials, jobs)
	for k := sortStepHi; k >= sortStepLo; k-- {
		if s := float64(k) / 100; pflyAt(cfg, rep, builds, s) >= targetYield {
			return s
		}
	}
	return 0
}

// Efficiency compares two socket offerings on a workload: relative
// performance = cores x IPC x frequency; relative power from SocketPower at
// each offering's sort point.
type Efficiency struct {
	PerfRatio  float64
	PowerRatio float64
	Gain       float64 // PerfRatio / PowerRatio
}

// CompareEfficiencyJobs computes the socket-level efficiency gain of cfgB
// over cfgA given each configuration's per-core IPC and power report on the
// same workload, both evaluated at their yield-safe sort points. The Monte
// Carlo sort-point searches run across up to jobs goroutines.
func CompareEfficiencyJobs(cfgA Config, ipcA float64, repA *power.Report,
	cfgB Config, ipcB float64, repB *power.Report, trials, jobs int) (Efficiency, error) {
	sA := SortPointJobs(cfgA, repA, 0.9, trials, jobs)
	sB := SortPointJobs(cfgB, repB, 0.9, trials, jobs)
	if sA == 0 || sB == 0 {
		return Efficiency{}, errors.New("socket: no yield-safe sort point")
	}
	coresA := float64(cfgA.FunctionalCores * cfgA.ChipsPerSocket)
	coresB := float64(cfgB.FunctionalCores * cfgB.ChipsPerSocket)
	perf := (coresB * ipcB * sB) / (coresA * ipcA * sA)
	diesA := []Die{SimulateDie(cfgA, 1)}
	var diesB []Die
	for c := 0; c < cfgB.ChipsPerSocket; c++ {
		diesB = append(diesB, SimulateDie(cfgB, uint64(c)+1))
	}
	if cfgA.ChipsPerSocket == 2 {
		diesA = append(diesA, SimulateDie(cfgA, 2))
	}
	pw := SocketPower(cfgB, repB, diesB, sB) / SocketPower(cfgA, repA, diesA, sA)
	return Efficiency{PerfRatio: perf, PowerRatio: pw, Gain: perf / pw}, nil
}
