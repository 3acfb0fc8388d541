package main

import (
	"fmt"
	"os"

	"power10sim/internal/runlog"
)

// checkRunlog validates a campaign ledger directory the way checkMetrics
// validates a snapshot: structural invariants only, no opinions about the
// measurements themselves. A freshly written ledger must be pristine —
// corruption tolerance is the reader's recovery posture, not an acceptable
// state for a sweep that just exited cleanly.
func checkRunlog(dir string, minRecords int) {
	recs, st, err := runlog.ScanDir(dir)
	if err != nil {
		fail("runlog: %v", err)
	}
	if st.Corrupt > 0 || st.WrongSchema > 0 {
		fail("runlog: %d corrupt and %d wrong-schema lines in a fresh ledger", st.Corrupt, st.WrongSchema)
	}
	if st.UnterminatedTail {
		fail("runlog: ledger ends in a torn line; the writer did not close cleanly")
	}
	if len(recs) < minRecords {
		fail("runlog: %d records, want >= %d", len(recs), minRecords)
	}
	var lastSeq uint64
	for i := range recs {
		r := &recs[i]
		where := fmt.Sprintf("record %d (seq %d)", i, r.Seq)
		if r.Seq <= lastSeq {
			fail("runlog: %s: sequence not strictly increasing after %d", where, lastSeq)
		}
		lastSeq = r.Seq
		if len(r.Key) != 64 || !isHex(r.Key) {
			fail("runlog: %s: key %q is not a 64-hex content key", where, r.Key)
		}
		if r.Config == "" || r.Workload == "" {
			fail("runlog: %s: missing config/workload identity", where)
		}
		if r.SMT < 1 {
			fail("runlog: %s: smt %d", where, r.SMT)
		}
		switch r.Tier {
		case runlog.TierRun, runlog.TierDisk, runlog.TierMemo, runlog.TierFabric, runlog.TierSurrogate:
		default:
			fail("runlog: %s: unknown tier %q", where, r.Tier)
		}
		if r.Time == "" {
			fail("runlog: %s: missing timestamp", where)
		}
		if r.WallSeconds < 0 {
			fail("runlog: %s: negative wall time", where)
		}
		if r.Err != "" {
			if r.Cycles != 0 || r.EnergyTotal != 0 {
				fail("runlog: %s: failed record carries measurements", where)
			}
		} else if r.Cycles == 0 || r.Instructions == 0 {
			fail("runlog: %s: successful record missing measurements", where)
		}
		// A surrogate-served record must carry the predicted mark (memo
		// restatements of a prediction keep the mark at their own tier, which
		// is fine — but a surrogate record without it would let model output
		// masquerade as ground truth to a later training pass).
		if r.Tier == runlog.TierSurrogate && !r.Predicted {
			fail("runlog: %s: surrogate record without the predicted mark", where)
		}
	}
	fmt.Fprintf(os.Stderr, "p10obscheck: runlog ok (%d records)\n", len(recs))
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
