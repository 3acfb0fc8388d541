package uarch

// Prefetcher is a stride-based stream prefetcher (the paper's LSU maintains
// 16 hardware prefetch streams on POWER10, fewer on POWER9). It watches
// demand-miss lines, detects constant-stride streams, and issues fills ahead
// of the stream.
type Prefetcher struct {
	streams []pfStream
	depth   int
	out     []uint64 // scratch for OnMiss results, consumed before the next call

	Trained    uint64
	Prefetches uint64
}

type pfStream struct {
	valid    bool
	lastLine uint64
	stride   int64 // 0 while untrained
	conf     int
	age      uint64
}

// maxTrainStride bounds, in cache lines, how far apart two misses may be and
// still be considered the same nascent stream.
const maxTrainStride = 32

// NewPrefetcher creates a prefetcher with n streams; n == 0 disables it.
func NewPrefetcher(n int) *Prefetcher {
	return &Prefetcher{streams: make([]pfStream, n), depth: 4, out: make([]uint64, 0, 4)}
}

// Reset drops all stream training and clears the counters (core-pool reuse).
func (p *Prefetcher) Reset() {
	clear(p.streams)
	p.Trained, p.Prefetches = 0, 0
}

// copyFrom copies src's stream training into p, not its counters.
func (p *Prefetcher) copyFrom(src *Prefetcher) { copy(p.streams, src.streams) }

// OnMiss records a demand miss of the given cache line number and returns
// line numbers to prefetch (possibly none).
func (p *Prefetcher) OnMiss(line uint64, now uint64) []uint64 {
	if len(p.streams) == 0 {
		return nil
	}
	// Pass 1: continuation of a trained stream.
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.stride != 0 && int64(line)-int64(s.lastLine) == s.stride {
			s.conf++
			s.lastLine = line
			s.age = now
			if s.conf >= 2 {
				if s.conf == 2 {
					p.Trained++
				}
				out := p.out[:0]
				for d := 1; d <= p.depth; d++ {
					out = append(out, uint64(int64(line)+s.stride*int64(d)))
				}
				p.out = out
				p.Prefetches += uint64(len(out))
				return out
			}
			return nil
		}
	}
	// Pass 2: establish a stride for a nascent stream near this line.
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.stride == 0 {
			d := int64(line) - int64(s.lastLine)
			if d != 0 && d >= -maxTrainStride && d <= maxTrainStride {
				s.stride = d
				s.conf = 1
				s.lastLine = line
				s.age = now
				return nil
			}
		}
	}
	// Pass 3: allocate a new stream, displacing the oldest if needed.
	slot, oldest := -1, ^uint64(0)
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			slot = i
			break
		}
		if s.age < oldest {
			oldest, slot = s.age, i
		}
	}
	p.streams[slot] = pfStream{valid: true, lastLine: line, age: now}
	return nil
}
