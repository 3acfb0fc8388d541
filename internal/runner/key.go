package runner

import (
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
)

// progID identifies a program by content, not pointer: the size-parameterised
// workload builders construct a fresh *isa.Program on every call, and a
// fabric unit decodes into a new one, so two experiments that run "the same"
// workload can hold distinct pointers to identical code. Keying on the
// program's content Fingerprint is what lets the cache collapse them.
type progID struct {
	name string
	code int
	hash uint64
}

// key is the memoization key: the full configuration value (uarch.Config is
// a flat comparable struct), the program identity, and the exact run
// parameters. Two requests with equal keys provably execute the same
// deterministic simulation.
type key struct {
	cfg       uarch.Config
	prog      progID
	smt       int
	budget    uint64
	warmup    uint64
	maxCycles uint64
	// upset is the injected-fault parameter set (zero when hasUpset is
	// false): two requests differing only in their upsets are distinct
	// deterministic simulations and must not share a cache slot.
	upset    uarch.Upset
	hasUpset bool
	// chaos keys forced-failure specs by identity: a spec carries mutable
	// failure-budget state, so only requests sharing the same spec instance
	// may share an entry.
	chaos *ChaosSpec
	// sample is the normalized sampling spec (zero when hasSample is
	// false): a sampled run is a different estimator than the full
	// simulation of the same request and must never share its cache slot.
	sample    sampling.Spec
	hasSample bool
}

// keyOf derives the cache key; ok is false for unkeyable requests.
func keyOf(req Request) (key, bool) {
	if req.Cfg == nil || req.W == nil || req.W.Prog == nil {
		return key{}, false
	}
	p := req.W.Prog
	k := key{
		cfg:       *req.Cfg,
		prog:      progID{name: p.Name, code: len(p.Code), hash: p.Fingerprint()},
		smt:       max(req.SMT, 1),
		budget:    req.Budget,
		warmup:    req.Warmup,
		maxCycles: req.MaxCycles,
		chaos:     req.Chaos,
	}
	if req.Upset != nil {
		k.upset = *req.Upset
		k.hasUpset = true
	}
	if req.Sample != nil && req.Upset == nil {
		// Upset requests run full regardless of Sample (see Request), so
		// keying them by spec would only split identical simulations.
		k.sample = req.Sample.Normalized()
		k.hasSample = true
	}
	return k, true
}
