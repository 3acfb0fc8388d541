package runner

import (
	"fmt"
	"time"

	"power10sim/internal/runlog"
	"power10sim/internal/uarch"
)

// This file feeds the persistent campaign ledger (internal/runlog): when a
// ledger is attached, every request the runner completes — executed, served
// from the persistent disk cache, or served from the in-process memo cache —
// appends one provenance record. Chaos self-test requests are excluded: their
// forced failures are harness noise, not campaign history.

// SetRunLog attaches a campaign ledger; nil detaches it (the default). Call
// before submitting requests; SetRunLog is not synchronized with Do.
func (r *Runner) SetRunLog(l *runlog.Ledger) { r.runlog = l }

// ContentKey returns the request's persistent content key — the SHA-256 hex
// the disk cache and the runlog ledger both address the simulation by. ok is
// false for unkeyable requests (nil config/workload).
func ContentKey(req Request) (string, bool) {
	k, ok := keyOf(req)
	if !ok {
		return "", false
	}
	return diskKey(k), true
}

// runlogEligible reports whether the request belongs in the campaign ledger.
func (r *Runner) runlogEligible(req Request) bool {
	return r.runlog != nil && req.Chaos == nil
}

// logRecord appends one ledger record for a completed request. Best-effort:
// a ledger write failure never degrades the sweep (the result is already
// computed), so errors are swallowed here and surface only through the
// byte/record counters not advancing.
func (r *Runner) logRecord(k key, req Request, res Result, tier string, wall time.Duration) {
	if !r.runlogEligible(req) {
		return
	}
	rec := runlog.Record{
		Key:         diskKey(k),
		Config:      req.Cfg.Name,
		Workload:    req.W.Name,
		SMT:         max(req.SMT, 1),
		Budget:      req.Budget,
		Warmup:      req.Warmup,
		MaxCycles:   req.MaxCycles,
		Tier:        tier,
		Attempts:    res.Attempts,
		WallSeconds: wall.Seconds(),
	}
	if k.hasSample {
		n := k.sample
		rec.Sampled = true
		rec.SampleSpec = fmt.Sprintf("iv%d k%d r%d w%d sig%d s%d",
			n.IntervalInsts, n.MaxK, n.RepsPerCluster,
			n.WarmupIntervals, n.SignatureDims, n.Seed)
	}
	if req.Upset != nil {
		rec.Upset = true
		rec.FaultOutcome = faultOutcome(res.Upset)
	}
	if uarch.ResolveConfigName(req.Cfg.Name) == nil {
		rec.Spec = req.Cfg
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	} else if res.Activity != nil && res.Report != nil {
		rec.Measure(res.Activity, res.Report)
	}
	r.runlog.Append(rec)
}

// faultOutcome renders an upset outcome for the ledger's fault_outcome
// field.
func faultOutcome(u *uarch.UpsetOutcome) string {
	switch {
	case u == nil:
		return "unobserved"
	case !u.Landed:
		return "missed"
	case u.VictimOp != "":
		return "landed:" + u.VictimOp
	default:
		return "landed"
	}
}
