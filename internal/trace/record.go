package trace

import "power10sim/internal/isa"

// This file is the functional front end: one VM runs ahead of its consumer
// on a second goroutine and hands over fixed-size blocks of compact records
// (isa.Record), which the VM writes in place.
// It serves two consumers. A Recording keeps every block, for a sampled run
// that reads the whole trace several times and for proxy extraction, which
// counts a profile as it lands and then copies out the slices it keeps; a
// ReadAhead recycles a few blocks, so a full simulation's core reads records
// while the VM executes the ones after them.

// Records travel in blocks of blockLen (64 KiB). A block is the unit of
// hand-over between the VM and its consumer, so it also bounds how far the
// consumer can start behind the VM: a full run of a 65k-instruction program
// starts timing after its first 4,096 records, not after the whole pass.
// Every block but the last of a pass is full, so record i of a recording
// lives at blocks[i>>blockShift][i&blockMask].
const (
	blockShift = 12
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// readAheadBlocks is a ReadAhead's ring: the block the consumer reads, the
// one the VM fills, and two finished ones between them.
const readAheadBlocks = 4

// pass is one functional execution of a program on its own goroutine. The
// goroutine sends each finished block on full, in trace order, and closes
// full when the program halts, the budget is spent, the VM fails (err) or
// panics (panicked), or stop is closed. err and panicked are written before
// full closes, so they may be read once a receive on full reports it closed.
type pass struct {
	full chan []isa.Record
	// free holds the empty blocks a ring recycles; nil allocates a new
	// block for each one filled.
	free chan []isa.Record
	// unmade counts the ring's blocks not yet allocated.
	unmade   int
	stop     chan struct{}
	err      error
	panicked any
}

// startPass starts executing prog for up to budget instructions. ring is the
// number of blocks to recycle, or 0 to allocate every block.
func startPass(prog *isa.Program, budget uint64, ring int) *pass {
	p := &pass{stop: make(chan struct{}), unmade: ring}
	if ring == 0 {
		p.full = make(chan []isa.Record, 1)
	} else {
		// Sized to the ring, so only the free list holds the VM back.
		p.full = make(chan []isa.Record, ring)
		p.free = make(chan []isa.Record, ring)
	}
	go func() {
		defer close(p.full)
		defer func() { p.panicked = recover() }()
		p.err = p.execute(prog, budget)
	}()
	return p
}

// block returns an empty block of at least lim records for the VM to fill,
// or ok false once stop is closed. Without a ring it allocates lim records.
// A ring block is one the reader has freed or, while none is free, one of
// the ring's blocks not yet allocated: a pass that halts early allocates
// only the blocks it fills.
func (p *pass) block(lim uint64) (blk []isa.Record, ok bool) {
	if p.free == nil {
		return make([]isa.Record, lim), true
	}
	select {
	case blk = <-p.free:
		return blk, true
	default:
	}
	if p.unmade > 0 {
		p.unmade--
		return make([]isa.Record, blockLen), true
	}
	select {
	case blk = <-p.free:
		return blk, true
	case <-p.stop:
		return nil, false
	}
}

// execute runs prog's VM, sending each block on full as it fills. The
// records before a VM error are sent before the error is returned, so the
// consumer sees exactly the records a VMStream delivers.
func (p *pass) execute(prog *isa.Program, budget uint64) error {
	vm := isa.NewVM(prog)
	for n := uint64(0); n < budget; n += blockLen {
		lim := min(blockLen, budget-n)
		blk, ok := p.block(lim)
		if !ok {
			return nil
		}
		k, err := vm.Fill(blk[:lim])
		if k > 0 {
			select {
			case p.full <- blk[:k]:
			case <-p.stop:
				return nil
			}
		}
		if err != nil || uint64(k) < lim {
			return err // the VM failed or the program halted
		}
	}
	return nil
}

// close stops the goroutine and returns once it has exited.
func (p *pass) close() {
	close(p.stop)
	for range p.full {
	}
}

// Recording is a whole dynamic trace, recorded compactly once, from which
// any range can be replayed any number of times. It is complete and
// read-only once Fill returns, so any number of goroutines may replay it.
// The interval sampler replays it window by window; proxy extraction
// (internal/proxy) counts executions in Fill's callback and copies only the
// slices it keeps out through Replay, so the recording is garbage once the
// proxies are built.
type Recording struct {
	prog   *isa.Program
	pcs    []uint64
	blocks [][]isa.Record
}

// NewRecording returns an empty recording of prog.
func NewRecording(prog *isa.Program) *Recording {
	return &Recording{prog: prog, pcs: prog.PCs()}
}

// Fill executes the program for up to budget instructions (fewer where it
// halts first) into r. The VM runs on a second goroutine and hands each
// finished block to use, in trace order, on the caller's goroutine, so the
// caller's work on one block overlaps recording the next. A VM error is
// returned after use has seen every record before it; a panic in the VM
// panics again on the caller's goroutine. The VM's goroutine has exited by
// the time Fill returns, on every path.
func (r *Recording) Fill(budget uint64, use func([]isa.Record)) error {
	p := startPass(r.prog, budget, 0)
	defer p.close() // unblocks a pending send if use panicked
	for blk := range p.full {
		r.blocks = append(r.blocks, blk)
		use(blk)
	}
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.err
}

// At returns record i.
func (r *Recording) At(i uint64) *isa.Record {
	return &r.blocks[i>>blockShift][i&blockMask]
}

// PC returns the address of rec's instruction.
func (r *Recording) PC(rec *isa.Record) uint64 { return r.pcs[rec.Idx()] }

// Replay returns a stream over the records [from, to).
func (r *Recording) Replay(from, to uint64) *Replay {
	return &Replay{rec: r, to: to, pos: from}
}

// Replay is a Stream over a range of a Recording.
type Replay struct {
	rec     *Recording
	to, pos uint64
	cur     []isa.Record // the records from pos to the end of its block or to
}

// Next implements Stream.
func (s *Replay) Next() (isa.DynInst, bool) {
	if len(s.cur) == 0 {
		if s.pos >= s.to {
			return isa.DynInst{}, false
		}
		b := s.pos >> blockShift
		end := min(uint64(len(s.rec.blocks[b])), s.to-b<<blockShift)
		s.cur = s.rec.blocks[b][s.pos&blockMask : end]
	}
	r := &s.cur[0]
	s.cur = s.cur[1:]
	s.pos++
	return r.DynInst(s.rec.pcs), true
}

// Program implements Stream.
func (s *Replay) Program() *isa.Program { return s.rec.prog }

// ReadAhead is a Stream that executes its program on a second goroutine,
// up to readAheadBlocks blocks ahead of the reader, so functional execution
// overlaps the reader's work when a CPU is free. It delivers exactly the
// records of a VMStream over the same program and budget. A VM error ends
// the stream after the records before it and is reported by Err; a VM panic
// panics again on the reader's goroutine. Close stops the goroutine, and
// must be called once the stream is no longer read, on every path.
type ReadAhead struct {
	prog     *isa.Program
	pcs      []uint64
	p        *pass        // nil once closed
	blk, cur []isa.Record // the block being read, and its unread records
	ended    bool         // the pass has closed full, or Close was called
	err      error
}

// NewReadAhead starts executing prog for up to budget instructions.
func NewReadAhead(prog *isa.Program, budget uint64) *ReadAhead {
	return &ReadAhead{prog: prog, pcs: prog.PCs(), p: startPass(prog, budget, readAheadBlocks)}
}

// Next implements Stream.
func (s *ReadAhead) Next() (isa.DynInst, bool) {
	if len(s.cur) == 0 && !s.refill() {
		return isa.DynInst{}, false
	}
	r := &s.cur[0]
	s.cur = s.cur[1:]
	return r.DynInst(s.pcs), true
}

// refill recycles the block just read and receives the next one.
func (s *ReadAhead) refill() bool {
	if s.ended {
		return false
	}
	if s.blk != nil {
		s.p.free <- s.blk // never blocks: the ring's other blocks are elsewhere
		s.blk = nil
	}
	blk, ok := <-s.p.full
	if !ok {
		s.ended = true
		if s.p.panicked != nil {
			panic(s.p.panicked)
		}
		s.err = s.p.err
		return false
	}
	s.blk, s.cur = blk, blk
	return true
}

// Program implements Stream.
func (s *ReadAhead) Program() *isa.Program { return s.prog }

// Err reports the functional execution error that ended the stream, if any.
func (s *ReadAhead) Err() error { return s.err }

// Close stops the VM's goroutine and returns once it has exited. The stream
// then delivers nothing more. Close may be called more than once.
func (s *ReadAhead) Close() {
	if s.p == nil {
		return
	}
	s.p.close()
	s.p = nil
	s.ended = true
	s.blk, s.cur = nil, nil
}
