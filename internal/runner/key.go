package runner

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"power10sim/internal/isa"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
)

// progID identifies a program by content, not pointer: the workload builders
// construct a fresh *isa.Program on every call, so two experiments that run
// "the same" workload hold distinct pointers to identical code. Keying on a
// content fingerprint is what lets the cache collapse them.
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
		prog:      progID{name: p.Name, code: len(p.Code), hash: fingerprint(p)},
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

// fingerprints memoizes per-pointer fingerprints: a batch resubmits the same
// *isa.Program dozens of times, and programs are immutable once built.
var fingerprints sync.Map // *isa.Program -> uint64

// fingerprint hashes everything that determines a program's functional
// behavior: code, entry point, code base, and the initial register/memory
// images. Map-valued images are combined commutatively so the fingerprint is
// independent of iteration order.
func fingerprint(p *isa.Program) uint64 {
	if v, ok := fingerprints.Load(p); ok {
		return v.(uint64)
	}
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.Name))
	h.Write([]byte{0})
	w64(uint64(p.Entry))
	w64(p.CodeBase)
	w64(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		packed := uint64(in.Op) |
			uint64(in.Cond)<<8 |
			uint64(in.Dst.File)<<16 | uint64(in.Dst.Idx)<<24 |
			uint64(in.A.File)<<32 | uint64(in.A.Idx)<<40 |
			uint64(in.B.File)<<48 | uint64(in.B.Idx)<<56
		w64(packed)
		w64(uint64(in.Imm))
		tgt := uint64(in.Target) << 1
		if in.Prefixed {
			tgt |= 1
		}
		w64(tgt)
	}
	var regs uint64
	for i, v := range p.InitGPR {
		regs ^= mix(uint64(i)*0x9E3779B97F4A7C15 ^ v)
	}
	w64(regs)
	var mem uint64
	for addr, bytes := range p.InitMem {
		bh := fnv.New64a()
		bh.Write(bytes)
		mem ^= mix(addr*0x9E3779B97F4A7C15 ^ bh.Sum64())
	}
	w64(mem)
	sum := h.Sum64()
	fingerprints.Store(p, sum)
	return sum
}

// mix is a splitmix64-style finalizer used for the commutative combines.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
