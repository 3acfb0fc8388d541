package uarch

// Cache is a set-associative cache with LRU replacement, used for L1I, L1D,
// L2 and L3. It models hit/miss behaviour only (contents are addresses); data
// values live in the functional trace. Tag and valid storage is flattened
// into two arrays (assoc-sized groups, MRU first within a group) so a cache
// is two allocations regardless of geometry and a pooled core can Reset it
// in place.
type Cache struct {
	tags  []uint64 // assoc-sized groups; within a group index 0 is MRU
	valid []bool
	assoc int
	mask  uint64
	shift uint

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache; a zero-size parameter set yields a nil cache,
// which all methods treat as "always miss" pass-through.
func NewCache(p CacheParams) *Cache {
	if p.Sets() == 0 {
		return nil
	}
	c := &Cache{assoc: p.Assoc}
	nsets := p.Sets()
	c.tags = make([]uint64, nsets*p.Assoc)
	c.valid = make([]bool, nsets*p.Assoc)
	c.mask = uint64(nsets - 1)
	for ls := p.LineBytes; ls > 1; ls >>= 1 {
		c.shift++
	}
	return c
}

// line returns (set index, tag) for an address.
func (c *Cache) line(addr uint64) (uint64, uint64) {
	l := addr >> c.shift
	return l & c.mask, l >> 0 // tag keeps full line number; cheap and unambiguous
}

// set returns the tag/valid group for set index si.
func (c *Cache) set(si uint64) ([]uint64, []bool) {
	base := int(si) * c.assoc
	return c.tags[base : base+c.assoc], c.valid[base : base+c.assoc]
}

// Access looks up addr, updating LRU state and filling on miss.
// It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	if c == nil {
		return false
	}
	c.Accesses++
	si, tag := c.line(addr)
	tags, valid := c.set(si)
	for i := range tags {
		if valid[i] && tags[i] == tag {
			// Move to MRU.
			copy(tags[1:i+1], tags[:i])
			copy(valid[1:i+1], valid[:i])
			tags[0] = tag
			valid[0] = true
			return true
		}
	}
	c.Misses++
	fill(tags, valid, tag)
	return false
}

// Probe looks up addr without modifying state or counters.
func (c *Cache) Probe(addr uint64) bool {
	if c == nil {
		return false
	}
	si, tag := c.line(addr)
	tags, valid := c.set(si)
	for i := range tags {
		if valid[i] && tags[i] == tag {
			return true
		}
	}
	return false
}

// Insert fills addr's line without counting an access (prefetch fills).
func (c *Cache) Insert(addr uint64) {
	if c == nil {
		return
	}
	si, tag := c.line(addr)
	tags, valid := c.set(si)
	for i := range tags {
		if valid[i] && tags[i] == tag {
			return // already present
		}
	}
	fill(tags, valid, tag)
}

func fill(tags []uint64, valid []bool, tag uint64) {
	// Evict LRU (last slot), insert at MRU.
	copy(tags[1:], tags[:len(tags)-1])
	copy(valid[1:], valid[:len(valid)-1])
	tags[0] = tag
	valid[0] = true
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c == nil || c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears counters without flushing contents.
func (c *Cache) ResetStats() {
	if c == nil {
		return
	}
	c.Accesses, c.Misses = 0, 0
}

// Reset empties the cache and clears its counters, restoring the
// just-constructed state (stale tags behind cleared valid bits are never
// consulted). Used by the core pool.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	clear(c.valid)
	c.Accesses, c.Misses = 0, 0
}

// copyFrom copies src's contents into c (same geometry), not its counters.
func (c *Cache) copyFrom(src *Cache) {
	if c == nil {
		return
	}
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
}

// Hierarchy bundles the data-side cache levels and memory latency into one
// lookup that returns total load-to-use latency and the level serviced.
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	L3  *Cache

	// L2Infinite makes every L2 lookup hit: the APEX core-only model.
	L2Infinite bool

	L1Lat, L2Lat, L3Lat, MemLat int

	L2Accesses, L2Misses uint64
	L3Accesses, L3Misses uint64
	MemAccesses          uint64
}

// MemLevel identifies which level serviced an access.
type MemLevel int

// Memory hierarchy levels.
const (
	LvlL1 MemLevel = iota
	LvlL2
	LvlL3
	LvlMem
)

func (l MemLevel) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlL3:
		return "L3"
	}
	return "MEM"
}

// NewHierarchy builds the data hierarchy for a config.
func NewHierarchy(cfg *Config) *Hierarchy {
	return &Hierarchy{
		L1D:        NewCache(cfg.L1D),
		L2:         NewCache(cfg.L2),
		L3:         NewCache(cfg.L3),
		L2Infinite: cfg.L2Infinite,
		L1Lat:      cfg.L1D.Latency,
		L2Lat:      cfg.L2.Latency,
		L3Lat:      cfg.L3.Latency,
		MemLat:     cfg.MemLatency,
	}
}

// Access performs a demand access and returns (latency, level).
func (h *Hierarchy) Access(addr uint64) (int, MemLevel) {
	if h.L1D.Access(addr) {
		return h.L1Lat, LvlL1
	}
	h.L2Accesses++
	if h.L2Infinite {
		if h.L2 != nil {
			h.L2.Insert(addr)
		}
		return h.L2Lat, LvlL2
	}
	if h.L2 != nil && h.L2.Access(addr) {
		return h.L2Lat, LvlL2
	}
	h.L2Misses++
	if h.L2 == nil {
		return h.MemLat, LvlMem
	}
	h.L3Accesses++
	if h.L3 != nil && h.L3.Access(addr) {
		return h.L3Lat, LvlL3
	}
	h.L3Misses++
	h.MemAccesses++
	return h.MemLat, LvlMem
}

// ResetStats clears all hierarchy counters, leaving contents warm.
func (h *Hierarchy) ResetStats() {
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.L2Accesses, h.L2Misses = 0, 0
	h.L3Accesses, h.L3Misses = 0, 0
	h.MemAccesses = 0
}

// Reset empties every level and clears the counters (core-pool reuse).
func (h *Hierarchy) Reset() {
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.L2Accesses, h.L2Misses = 0, 0
	h.L3Accesses, h.L3Misses = 0, 0
	h.MemAccesses = 0
}

// copyFrom copies src's contents into every level, not its counters.
func (h *Hierarchy) copyFrom(src *Hierarchy) {
	h.L1D.copyFrom(src.L1D)
	h.L2.copyFrom(src.L2)
	h.L3.copyFrom(src.L3)
}

// InsertLine installs a line into L1D and L2 (prefetch fill path).
func (h *Hierarchy) InsertLine(addr uint64) {
	h.L1D.Insert(addr)
	if h.L2 != nil {
		h.L2.Insert(addr)
	}
}
