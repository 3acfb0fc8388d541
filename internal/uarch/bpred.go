package uarch

import "power10sim/internal/isa"

// BPred models the branch prediction stack:
//
//   - a bimodal (PC-indexed) primary direction predictor — per-branch bias;
//   - an optional tagged, global-history-indexed second direction predictor
//     (one of POWER10's "new predictors for direction"), consulted only when
//     its counter is confident;
//   - a BTB for taken-branch targets;
//   - an optional indirect-target predictor indexed by PC and recent target
//     history (POWER10's new indirect predictor); without it, indirect
//     branches fall back to BTB last-target prediction.
//
// Operating trace-driven, Observe performs predict-compare-update in one step
// and reports whether the branch would have been mispredicted.
type BPred struct {
	params BPredParams

	dir     []uint8 // bimodal 2-bit counters
	dirMask uint64

	tagTags []uint32 // second-level tagged predictor
	tagCtr  []uint8
	tagUse  []uint8
	tagMask uint64

	btbTags []uint64
	btbTgt  []uint64
	btbMask uint64

	indTags []uint64
	indTgt  []uint64
	indMask uint64

	hist    [8]uint64 // per-thread global direction history
	tgtHist [8]uint64 // per-thread indirect target history

	Lookups        uint64
	Mispredicts    uint64
	DirMispredicts uint64
	TgtMispredicts uint64
	SecondHits     uint64
}

func pow2Mask(n int) uint64 {
	if n <= 1 {
		return 0
	}
	v := uint64(1)
	for v*2 <= uint64(n) {
		v *= 2
	}
	return v - 1
}

// NewBPred builds the predictor stack.
func NewBPred(p BPredParams) *BPred {
	b := &BPred{params: p}
	b.dirMask = pow2Mask(p.DirEntries)
	b.dir = make([]uint8, b.dirMask+1)
	for i := range b.dir {
		b.dir[i] = 1 // weakly not-taken
	}
	if p.SecondDir && p.SecondEntries > 0 {
		b.tagMask = pow2Mask(p.SecondEntries)
		b.tagTags = make([]uint32, b.tagMask+1)
		b.tagCtr = make([]uint8, b.tagMask+1)
		b.tagUse = make([]uint8, b.tagMask+1)
	}
	b.btbMask = pow2Mask(p.BTBEntries)
	b.btbTags = make([]uint64, b.btbMask+1)
	b.btbTgt = make([]uint64, b.btbMask+1)
	if p.IndirEntries > 0 {
		b.indMask = pow2Mask(p.IndirEntries)
		b.indTags = make([]uint64, b.indMask+1)
		b.indTgt = make([]uint64, b.indMask+1)
	}
	return b
}

// fold compresses history into index width.
func fold(h uint64) uint64 { return h ^ h>>7 ^ h>>13 }

func (b *BPred) dirIndex(pc uint64) uint64 { return (pc >> 2) & b.dirMask }

func (b *BPred) tagIndex(thread int, pc uint64) (uint64, uint32) {
	h := b.hist[thread&7]
	idx := (pc>>2 ^ fold(h) ^ h>>5) & b.tagMask
	tag := uint32(pc>>2 ^ h>>2)
	if tag == 0 {
		tag = 1
	}
	return idx, tag
}

// predictDir returns the predicted direction for a conditional branch. The
// tagged history component overrides the bimodal primary only when its
// counter is saturated (confident).
func (b *BPred) predictDir(thread int, pc uint64) (taken bool, fromSecond bool) {
	if b.tagTags != nil {
		idx, tag := b.tagIndex(thread, pc)
		if b.tagTags[idx] == tag && (b.tagCtr[idx] == 0 || b.tagCtr[idx] == 3) {
			return b.tagCtr[idx] == 3, true
		}
	}
	return b.dir[b.dirIndex(pc)] >= 2, false
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Observe runs predict/update for one dynamic branch and returns whether it
// was mispredicted (direction or target).
func (b *BPred) Observe(thread int, pc uint64, cls isa.Class, taken bool, target uint64) bool {
	b.Lookups++
	mispred := false

	switch cls {
	case isa.ClassBranch:
		// Unconditional direct: direction known at decode; target from BTB
		// with a cheap decode-time redirect on miss (not a full flush).
		b.btbLookup(pc, target)
	case isa.ClassCondBranch:
		pred, fromSecond := b.predictDir(thread, pc)
		if fromSecond {
			b.SecondHits++
		}
		if pred != taken {
			mispred = true
			b.DirMispredicts++
		} else if taken && !b.btbLookup(pc, target) {
			mispred = true
			b.TgtMispredicts++
		}
		b.update(thread, pc, taken, pred)
	case isa.ClassIndirBranch:
		predTgt, ok := b.indirLookup(thread, pc)
		if !ok || predTgt != target {
			mispred = true
			b.TgtMispredicts++
		}
		b.indirUpdate(thread, pc, target)
		th := &b.tgtHist[thread&7]
		hv := target >> 2
		*th = *th<<5 ^ hv ^ hv>>11
	}

	// Update global direction history.
	h := &b.hist[thread&7]
	*h = (*h << 1) | boolBit(taken)
	if b.params.HistoryBits > 0 && b.params.HistoryBits < 64 {
		*h &= (1 << uint(b.params.HistoryBits)) - 1
	}

	if taken {
		b.btbInsert(pc, target)
	}
	if mispred {
		b.Mispredicts++
	}
	return mispred
}

func (b *BPred) update(thread int, pc uint64, taken, pred bool) {
	bump(&b.dir[b.dirIndex(pc)], taken)
	if b.tagTags == nil {
		return
	}
	idx, tag := b.tagIndex(thread, pc)
	if b.tagTags[idx] == tag {
		bump(&b.tagCtr[idx], taken)
		if pred == taken && b.tagUse[idx] < 3 {
			b.tagUse[idx]++
		}
		return
	}
	// Allocate on primary mispredict, displacing low-usefulness entries.
	if pred != taken {
		if b.tagUse[idx] == 0 {
			b.tagTags[idx] = tag
			b.tagCtr[idx] = 1
			if taken {
				b.tagCtr[idx] = 2
			}
			b.tagUse[idx] = 1
		} else {
			b.tagUse[idx]--
		}
	}
}

func (b *BPred) btbLookup(pc, target uint64) bool {
	i := (pc >> 2) & b.btbMask
	return b.btbTags[i] == pc && b.btbTgt[i] == target
}

func (b *BPred) btbInsert(pc, target uint64) {
	i := (pc >> 2) & b.btbMask
	b.btbTags[i] = pc
	b.btbTgt[i] = target
}

func (b *BPred) indirLookup(thread int, pc uint64) (uint64, bool) {
	if b.indTags == nil {
		// No indirect predictor: BTB last-target behaviour.
		i := (pc >> 2) & b.btbMask
		if b.btbTags[i] == pc {
			return b.btbTgt[i], true
		}
		return 0, false
	}
	i := (pc>>2 ^ fold(b.tgtHist[thread&7])) & b.indMask
	if b.indTags[i] == pc {
		return b.indTgt[i], true
	}
	return 0, false
}

func (b *BPred) indirUpdate(thread int, pc, target uint64) {
	if b.indTags == nil {
		return
	}
	i := (pc>>2 ^ fold(b.tgtHist[thread&7])) & b.indMask
	b.indTags[i] = pc
	b.indTgt[i] = target
}

// Reset restores the just-constructed predictor state: bimodal counters back
// to weakly not-taken (matching NewBPred), all tagged/BTB/indirect state and
// histories cleared, counters zeroed. Used by the core pool.
func (b *BPred) Reset() {
	for i := range b.dir {
		b.dir[i] = 1 // weakly not-taken
	}
	clear(b.tagTags)
	clear(b.tagCtr)
	clear(b.tagUse)
	clear(b.btbTags)
	clear(b.btbTgt)
	clear(b.indTags)
	clear(b.indTgt)
	b.hist = [8]uint64{}
	b.tgtHist = [8]uint64{}
	b.Lookups, b.Mispredicts = 0, 0
	b.DirMispredicts, b.TgtMispredicts, b.SecondHits = 0, 0, 0
}

// copyFrom copies src's trained state and histories into b (same
// parameters), not its counters.
func (b *BPred) copyFrom(src *BPred) {
	copy(b.dir, src.dir)
	copy(b.tagTags, src.tagTags)
	copy(b.tagCtr, src.tagCtr)
	copy(b.tagUse, src.tagUse)
	copy(b.btbTags, src.btbTags)
	copy(b.btbTgt, src.btbTgt)
	copy(b.indTags, src.indTags)
	copy(b.indTgt, src.indTgt)
	b.hist = src.hist
	b.tgtHist = src.tgtHist
}

// ResetStats clears prediction counters, leaving trained state warm.
func (b *BPred) ResetStats() {
	b.Lookups, b.Mispredicts = 0, 0
	b.DirMispredicts, b.TgtMispredicts, b.SecondHits = 0, 0, 0
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
