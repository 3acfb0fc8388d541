package isa

import "encoding/binary"

// Memory is a sparse, page-granular byte-addressable memory for the
// functional executor. Reads of untouched memory return zeros.
//
// The page map is the only storage. A small direct-mapped cache of page
// pointers short-cuts the map probe, so a loop that streams through a few
// arrays at once (daxpy's x and y) finds each array's current page without
// one evicting the other. Every access — reads included — may update that
// cache, so a Memory is not safe for concurrent use, even by readers. Each
// VM owns its Memory.
type Memory struct {
	pages map[uint64]*page
	cache [pageCacheLen]cachedPage
}

// cachedPage is one page cache slot; p is nil while the slot is empty.
type cachedPage struct {
	pn uint64
	p  *page
}

const pageShift = 12 // 4 KiB pages
const pageSize = 1 << pageShift

// pageCacheBits sets the page cache at 64 slots (256 KiB of pages).
const (
	pageCacheBits = 6
	pageCacheLen  = 1 << pageCacheBits
)

type page [pageSize]byte

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// cacheSlot maps a page number to its cache slot. A multiplicative hash
// spreads page numbers that differ only in high bits: the kernels' arrays
// sit at megabyte-aligned bases, which the low bits alone would send to one
// slot.
func cacheSlot(pn uint64) uint64 {
	return pn * 0x9E3779B97F4A7C15 >> (64 - pageCacheBits)
}

// pageFor returns the page holding addr, allocating it when create is set;
// otherwise an untouched page is nil. Pages are never removed (Reset zeroes
// them in place), so a cached page pointer stays valid for the Memory's life.
func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	c := &m.cache[cacheSlot(pn)]
	if c.p != nil && c.pn == pn {
		return c.p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(page)
		m.pages[pn] = p
	}
	*c = cachedPage{pn, p}
	return p
}

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	p[addr&(pageSize-1)] = v
}

// Read reads n little-endian bytes into a uint64 (n <= 8). Word and
// doubleword accesses inside one page are a single load; page-crossing and
// odd-size accesses go byte by byte.
func (m *Memory) Read(addr uint64, n int) uint64 {
	if off := addr & (pageSize - 1); (n == 8 || n == 4) && off+uint64(n) <= pageSize {
		p := m.pageFor(addr, false)
		switch {
		case p == nil:
			return 0
		case n == 8:
			return binary.LittleEndian.Uint64(p[off : off+8])
		default:
			return uint64(binary.LittleEndian.Uint32(p[off : off+4]))
		}
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes the low n bytes of v little-endian (n <= 8), with the same
// single-store fast path as Read.
func (m *Memory) Write(addr uint64, v uint64, n int) {
	if off := addr & (pageSize - 1); (n == 8 || n == 4) && off+uint64(n) <= pageSize {
		p := m.pageFor(addr, true)
		if n == 8 {
			binary.LittleEndian.PutUint64(p[off:off+8], v)
		} else {
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(v))
		}
		return
	}
	for i := 0; i < n; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Read128 reads a 16-byte quantity as two uint64 words, with one page
// lookup when it lies inside one page.
func (m *Memory) Read128(addr uint64) [2]uint64 {
	if off := addr & (pageSize - 1); off <= pageSize-16 {
		p := m.pageFor(addr, false)
		if p == nil {
			return [2]uint64{}
		}
		return [2]uint64{binary.LittleEndian.Uint64(p[off : off+8]), binary.LittleEndian.Uint64(p[off+8 : off+16])}
	}
	return [2]uint64{m.Read(addr, 8), m.Read(addr+8, 8)}
}

// Write128 writes a 16-byte quantity, with one page lookup when it lies
// inside one page.
func (m *Memory) Write128(addr uint64, v [2]uint64) {
	if off := addr & (pageSize - 1); off <= pageSize-16 {
		p := m.pageFor(addr, true)
		binary.LittleEndian.PutUint64(p[off:off+8], v[0])
		binary.LittleEndian.PutUint64(p[off+8:off+16], v[1])
		return
	}
	m.Write(addr, v[0], 8)
	m.Write(addr+8, v[1], 8)
}

// LoadImage copies an initial memory image, one page-sized chunk at a time.
func (m *Memory) LoadImage(img map[uint64][]byte) {
	for addr, data := range img {
		for len(data) > 0 {
			n := copy(m.pageFor(addr, true)[addr&(pageSize-1):], data)
			addr += uint64(n)
			data = data[n:]
		}
	}
}

// Pages reports the number of touched pages (footprint diagnostics).
func (m *Memory) Pages() int { return len(m.pages) }

// Reset zeroes every touched page in place instead of dropping the page map:
// a re-run over the same footprint then allocates nothing. Observable
// contents (reads, Hash) are identical to a fresh memory — Hash already
// treats all-zero pages as untouched — though Pages may over-report until
// the footprint is re-touched.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
}

// Hash returns an order-independent FNV-style digest of the memory contents.
// Untouched and all-zero pages hash identically (reads of untouched memory
// return zeros), so two memories with equal observable contents have equal
// hashes — the property the fault-injection engine's silent-data-corruption
// check relies on.
func (m *Memory) Hash() uint64 {
	var h uint64
	for pn, p := range m.pages {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		ph := uint64(offset64)
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
			}
			ph = (ph ^ uint64(b)) * prime64
		}
		if zero {
			continue // indistinguishable from an untouched page
		}
		// Commutative combine keeps the digest independent of map order.
		x := pn*0x9E3779B97F4A7C15 ^ ph
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		h ^= x ^ x>>31
	}
	return h
}
