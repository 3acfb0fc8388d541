package uarch

// MMU models the ERAT (first-level translation cache) backed by the TLB.
// POWER9's real-address-tagged L1 caches perform a translation on every
// access; POWER10's EA-tagged L1s translate only on an L1 miss — the paper
// names this as a major switching-power reduction. The MMU exposes both the
// latency and the lookup counts the power model charges.
type MMU struct {
	erat *Cache // page-granular, fully handled as a tiny cache
	tlb  *Cache

	tlbLat    int
	walkLat   int
	pageShift uint

	ERATLookups uint64
	ERATMisses  uint64
	TLBLookups  uint64
	TLBMisses   uint64
}

// NewMMU builds the translation structures for a config.
func NewMMU(cfg *Config) *MMU {
	var ps uint
	for p := cfg.PageBytes; p > 1; p >>= 1 {
		ps++
	}
	erat := NewCache(CacheParams{
		SizeBytes: cfg.ERATEntries * cfg.PageBytes,
		LineBytes: cfg.PageBytes,
		Assoc:     cfg.ERATEntries, // fully associative
	})
	tlbAssoc := 4
	tlb := NewCache(CacheParams{
		SizeBytes: cfg.TLBEntries * cfg.PageBytes,
		LineBytes: cfg.PageBytes,
		Assoc:     tlbAssoc,
	})
	return &MMU{erat: erat, tlb: tlb, tlbLat: cfg.TLBLatency, walkLat: cfg.WalkLatency, pageShift: ps}
}

// Reset empties the translation caches and clears the counters, restoring
// the just-constructed state (core-pool reuse).
func (m *MMU) Reset() {
	m.erat.Reset()
	m.tlb.Reset()
	m.ERATLookups, m.ERATMisses = 0, 0
	m.TLBLookups, m.TLBMisses = 0, 0
}

// copyFrom copies src's translation state into m, not its counters.
func (m *MMU) copyFrom(src *MMU) {
	m.erat.copyFrom(src.erat)
	m.tlb.copyFrom(src.tlb)
}

// ResetStats clears lookup counters, leaving translation state warm.
func (m *MMU) ResetStats() {
	m.ERATLookups, m.ERATMisses = 0, 0
	m.TLBLookups, m.TLBMisses = 0, 0
}

// Translate looks up addr and returns the added translation latency
// (0 on an ERAT hit).
func (m *MMU) Translate(addr uint64) int {
	m.ERATLookups++
	if m.erat.Access(addr) {
		return 0
	}
	m.ERATMisses++
	m.TLBLookups++
	if m.tlb.Access(addr) {
		return m.tlbLat
	}
	m.TLBMisses++
	return m.tlbLat + m.walkLat
}
