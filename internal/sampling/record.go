package sampling

import (
	"fmt"

	"power10sim/internal/isa"
)

// record is one dynamic instruction of a recording in 16 bytes, against the
// 40 of isa.DynInst: a long trace is recorded once per sampled run, so its
// footprint is the run's memory high-water mark. PC and NextPC are rebuilt
// from the static code through Program.PC.
type record struct {
	idx int32
	// next is the static index of the following dynamic instruction shifted
	// left one, with the branch-taken outcome in bit 0.
	next uint32
	ea   uint64
}

func pack(d isa.DynInst, next int) record {
	r := record{idx: d.Idx, next: uint32(next) << 1, ea: d.EA}
	if d.Taken {
		r.next |= 1
	}
	return r
}

// dynInst rebuilds the VM's record from the program's PC table. A halt's
// successor index is idx+1, and pcs[idx+1] is PC+Bytes(): exactly the NextPC
// VM.Step reports for a halt, so no instruction needs a special case.
func (r *record) dynInst(pcs []uint64) isa.DynInst {
	return isa.DynInst{
		Idx:    r.idx,
		PC:     pcs[r.idx],
		NextPC: pcs[r.next>>1],
		EA:     r.ea,
		Taken:  r.next&1 != 0,
	}
}

// A recording is stored in fixed-size blocks of blockLen records (1 MiB), so
// it grows without copying what is already recorded and is never sized from
// the budget, which may far exceed the program's length. Every block but the
// last is full, so record i lives at blocks[i>>blockShift][i&blockMask].
const (
	blockShift = 16
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// recording is a sampled run's single functional pass: the whole trace,
// recorded compactly once, from which every representative window's records
// and every thread's functional-warming prefix are read. It is complete and
// read-only once fill returns, so any number of goroutines may replay it.
type recording struct {
	prog   *isa.Program
	pcs    []uint64 // Program.PC for every static index, plus the end address
	blocks [][]record
}

// newRecording returns an empty recording of prog.
func newRecording(prog *isa.Program) *recording {
	r := &recording{prog: prog, pcs: make([]uint64, len(prog.Code)+1)}
	for i := range r.pcs {
		r.pcs[i] = prog.PC(i)
	}
	return r
}

// fill executes the program for up to budget instructions (fewer where it
// halts first) into r. The VM runs on a second goroutine and hands each
// finished block to use, in trace order, on the caller's goroutine, so the
// caller's work on one block overlaps recording the next. A panic in the VM
// panics again on the caller's goroutine. That goroutine has exited by the
// time fill returns, on every path.
func (r *recording) fill(budget uint64, use func([]record)) error {
	full := make(chan []record, 1)
	stop := make(chan struct{})
	var (
		err     error
		vmPanic any
	)
	go func() {
		defer close(full)
		defer func() { vmPanic = recover() }()
		err = execute(r.prog, budget, full, stop)
	}()
	defer func() {
		// Unblock a pending send if use panicked, then wait for the close.
		close(stop)
		for range full {
		}
	}()
	for blk := range full {
		r.blocks = append(r.blocks, blk)
		use(blk)
	}
	if vmPanic != nil {
		panic(vmPanic)
	}
	if err != nil {
		return fmt.Errorf("sampling: functional pass: %w", err)
	}
	return nil
}

// execute runs prog's VM for up to budget instructions, sending each block
// of records on out as it fills, until the program halts, the budget is
// spent, the VM fails, or stop is closed.
func execute(prog *isa.Program, budget uint64, out chan<- []record, stop <-chan struct{}) error {
	vm := isa.NewVM(prog)
	for n := uint64(0); n < budget; n += blockLen {
		blk := make([]record, 0, min(blockLen, budget-n))
		for len(blk) < cap(blk) {
			d, ok, err := vm.Step()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			blk = append(blk, pack(d, vm.PC()))
		}
		if len(blk) == 0 {
			return nil
		}
		select {
		case out <- blk:
		case <-stop:
			return nil
		}
		if len(blk) < cap(blk) {
			return nil // the program halted
		}
	}
	return nil
}

// at returns record i.
func (r *recording) at(i uint64) *record {
	return &r.blocks[i>>blockShift][i&blockMask]
}

// replay returns a stream over the records [from, to).
func (r *recording) replay(from, to uint64) *replay {
	return &replay{rec: r, to: to, pos: from}
}

// replay is a trace.Stream over a range of a recording.
type replay struct {
	rec     *recording
	to, pos uint64
	cur     []record // the records from pos to the end of its block or to
}

// Next implements trace.Stream.
func (s *replay) Next() (isa.DynInst, bool) {
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
	return r.dynInst(s.rec.pcs), true
}

// Program implements trace.Stream.
func (s *replay) Program() *isa.Program { return s.rec.prog }
