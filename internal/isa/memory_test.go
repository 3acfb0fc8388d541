package isa

import (
	"math/rand"
	"testing"
)

// refMemory is the byte-map reference model Memory must be observably
// equivalent to: one map entry per written byte, untouched bytes read zero.
type refMemory map[uint64]byte

func (r refMemory) read(addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(r[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (r refMemory) write(addr, v uint64, n int) {
	for i := 0; i < n; i++ {
		r[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// hash is the reference digest: a fresh Memory filled byte by byte.
func (r refMemory) hash() uint64 {
	m := NewMemory()
	for a, b := range r {
		m.SetByte(a, b)
	}
	return m.Hash()
}

// TestMemoryMatchesByteModel drives Memory and the byte-map model with the
// same seeded random operations — every access width, 128-bit accesses,
// page-straddling addresses, reads of untouched pages, image loads that
// start and end mid-page and cross pages, interleaved Resets, and accesses
// over more pages than the page cache has slots, several of them sharing
// one slot — and requires identical reads and hashes throughout.
func TestMemoryMatchesByteModel(t *testing.T) {
	// Three adjacent pages (so accesses straddle both inner boundaries) and
	// one distant page; reads also probe pages no operation ever writes.
	written := []uint64{0x2000_0000, 0x2000_1000, 0x2000_2000, 0x7fff_f000}
	untouched := []uint64{0x2000_3000, 0x5000_0000}
	// More scattered pages than the cache has slots, and six pages that map
	// to one slot, so lookups miss, evict and refill. Half the seeds spread
	// their accesses over these too; the rest keep to the pages above.
	var wide []uint64
	for i := uint64(0); i < pageCacheLen+8; i++ {
		wide = append(wide, 0x4000_0000+i*0x13000)
	}
	for pn, shared := uint64(0x6_0000), 0; shared < 6; pn++ {
		if cacheSlot(pn) == cacheSlot(0x6_0000) {
			wide = append(wide, pn<<pageShift)
			shared++
		}
	}
	// An image stays inside one run of adjacent written pages.
	regions := [][2]uint64{{0x2000_0000, 0x2000_3000}, {0x7fff_f000, 0x8000_0000}}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func(pages []uint64) uint64 {
			base := pages[rng.Intn(len(pages))]
			if rng.Intn(3) == 0 {
				// The last 24 bytes of a page: most accesses here cross it.
				return base + pageSize - 1 - uint64(rng.Intn(24))
			}
			return base + uint64(rng.Intn(pageSize))
		}
		m, ref := NewMemory(), refMemory{}
		for op := 0; op < 4000; op++ {
			a := addr(written)
			if seed > 4 && rng.Intn(2) == 0 {
				a = addr(wide)
			}
			switch k := rng.Intn(100); {
			case k < 35:
				n := 1 + rng.Intn(8)
				v := rng.Uint64()
				m.Write(a, v, n)
				ref.write(a, v, n)
			case k < 70:
				n := 1 + rng.Intn(8)
				if rng.Intn(4) == 0 {
					a = addr(untouched)
				}
				if got, want := m.Read(a, n), ref.read(a, n); got != want {
					t.Fatalf("seed %d op %d: Read(%#x, %d) = %#x, want %#x", seed, op, a, n, got, want)
				}
			case k < 82:
				v := [2]uint64{rng.Uint64(), rng.Uint64()}
				m.Write128(a, v)
				ref.write(a, v[0], 8)
				ref.write(a+8, v[1], 8)
			case k < 92:
				got := m.Read128(a)
				if want := [2]uint64{ref.read(a, 8), ref.read(a+8, 8)}; got != want {
					t.Fatalf("seed %d op %d: Read128(%#x) = %#x, want %#x", seed, op, a, got, want)
				}
			case k < 96:
				// One image per region, of 1 byte to a little over two
				// pages, so most start and end mid-page and many cross one
				// or two page boundaries.
				img := map[uint64][]byte{}
				for _, r := range regions {
					if rng.Intn(2) == 0 {
						continue
					}
					start := r[0] + uint64(rng.Intn(int(r[1]-r[0])))
					data := make([]byte, 1+rng.Intn(int(min(r[1]-start, 2*pageSize+64))))
					rng.Read(data)
					img[start] = data
					for i, b := range data {
						ref[start+uint64(i)] = b
					}
				}
				m.LoadImage(img)
			case k < 99:
				if got, want := m.Hash(), ref.hash(); got != want {
					t.Fatalf("seed %d op %d: Hash = %#x, want %#x", seed, op, got, want)
				}
			default:
				m.Reset()
				ref = refMemory{}
			}
		}
		for a := range ref {
			if got := m.ByteAt(a); got != ref[a] {
				t.Fatalf("seed %d: final ByteAt(%#x) = %#x, want %#x", seed, a, got, ref[a])
			}
		}
		if got, want := m.Hash(), ref.hash(); got != want {
			t.Fatalf("seed %d: final Hash = %#x, want %#x", seed, got, want)
		}
	}
}
