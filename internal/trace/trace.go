// Package trace provides the dynamic instruction stream abstraction that
// connects the functional executor (internal/isa) to the timing simulator
// (internal/uarch) and to the methodology tooling (proxies, tracepoints).
package trace

import (
	"fmt"

	"power10sim/internal/isa"
)

// Stream produces a dynamic instruction sequence for one hardware thread.
type Stream interface {
	// Next returns the next dynamic instruction. ok is false at end of stream.
	Next() (rec isa.DynInst, ok bool)
	// Program returns the static code the stream's records index into.
	Program() *isa.Program
}

// VMStream executes a program functionally, on demand, up to a budget of
// dynamic instructions, on the reader's goroutine: when its block of records
// is read it has the VM fill the next. It suits direct simulation callers
// and loops that Reset and replay a stream without allocating; a runner's
// full run reads a ReadAhead instead, which overlaps the VM with the reader.
// Reset restarts execution from the initial state.
type VMStream struct {
	prog   *isa.Program
	pcs    []uint64
	budget uint64
	vm     *isa.VM
	n      uint64 // instructions executed so far
	err    error
	buf    [vmStreamBlock]isa.Record
	pos, k int // buf[pos:k] are the unread records
}

// vmStreamBlock is the number of records a VMStream executes at a time.
const vmStreamBlock = 256

// NewVMStream creates a stream over prog limited to budget instructions.
func NewVMStream(prog *isa.Program, budget uint64) *VMStream {
	return &VMStream{prog: prog, pcs: prog.PCs(), budget: budget, vm: isa.NewVM(prog)}
}

// Next implements Stream.
func (s *VMStream) Next() (isa.DynInst, bool) {
	if s.pos == s.k && !s.refill() {
		return isa.DynInst{}, false
	}
	r := &s.buf[s.pos]
	s.pos++
	return r.DynInst(s.pcs), true
}

// refill executes the next block. A VM error ends the stream after the
// records before it: the VM stays before the failing instruction, so the
// refill after those records meets the error again and executes nothing.
func (s *VMStream) refill() bool {
	if s.err != nil || s.n >= s.budget {
		return false
	}
	k, err := s.vm.Fill(s.buf[:min(s.budget-s.n, vmStreamBlock)])
	if k == 0 {
		s.err = err
		return false
	}
	s.n += uint64(k)
	s.pos, s.k = 0, k
	return true
}

// Program implements Stream.
func (s *VMStream) Program() *isa.Program { return s.prog }

// Reset rewinds the stream to its beginning. The VM is rewound in place (registers and memory
// image restored without reallocation), so resetting and replaying a stream
// is allocation-free once the program's memory footprint has been touched.
func (s *VMStream) Reset() {
	s.vm.Reset()
	s.n = 0
	s.err = nil
	s.pos, s.k = 0, 0
}

// Err reports a functional execution error, if any occurred.
func (s *VMStream) Err() error { return s.err }

// StreamErr reports the functional execution error that ended s early, for
// the streams that keep one (VMStream, ReadAhead), and nil for the others.
func StreamErr(s Stream) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// SliceStream replays a captured record slice.
type SliceStream struct {
	prog *isa.Program
	recs []isa.DynInst
	pos  int
	// LoopForever, when set, wraps around at the end (the paper's
	// "L1-contained endless loops" proxy payloads). Budget still bounds
	// total records delivered.
	LoopForever bool
	Budget      uint64
	delivered   uint64
}

// NewSliceStream replays recs against prog once.
func NewSliceStream(prog *isa.Program, recs []isa.DynInst) *SliceStream {
	return &SliceStream{prog: prog, recs: recs}
}

// NewLoopStream replays recs endlessly up to budget records, emulating the
// L1-contained endless-loop payloads used for RTLSim proxy workloads.
func NewLoopStream(prog *isa.Program, recs []isa.DynInst, budget uint64) *SliceStream {
	return &SliceStream{prog: prog, recs: recs, LoopForever: true, Budget: budget}
}

// Next implements Stream.
func (s *SliceStream) Next() (isa.DynInst, bool) {
	if len(s.recs) == 0 {
		return isa.DynInst{}, false
	}
	if s.Budget > 0 && s.delivered >= s.Budget {
		return isa.DynInst{}, false
	}
	if s.pos >= len(s.recs) {
		if !s.LoopForever {
			return isa.DynInst{}, false
		}
		s.pos = 0
	}
	rec := s.recs[s.pos]
	s.pos++
	s.delivered++
	return rec, true
}

// Program implements Stream.
func (s *SliceStream) Program() *isa.Program { return s.prog }

// Capture functionally executes prog for up to budget instructions and
// returns the dynamic trace, 32 bytes a record. Its callers index or replay
// the whole trace as isa.DynInst: tracepoints.Collect and the benchmark's
// traced executor (bench/trace.go). A caller that needs counts and a few
// slices of a trace records a Recording instead, as proxy extraction does.
func Capture(prog *isa.Program, budget uint64) ([]isa.DynInst, error) {
	pcs := prog.PCs()
	recs := make([]isa.DynInst, 0, min(budget, 1<<16))
	_, err := isa.NewVM(prog).Run(budget, func(blk []isa.Record) {
		for i := range blk {
			recs = append(recs, blk[i].DynInst(pcs))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("capture %q: %w", prog.Name, err)
	}
	return recs, nil
}

// GEMMRatio functionally executes prog for up to budget instructions and
// returns the fraction of them in the MMA or VSX-FMA classes — the "GEMM
// instruction ratio" panel of Fig. 6. It counts the classes block by block
// as the VM runs and keeps no trace.
func GEMMRatio(prog *isa.Program, budget uint64) (float64, error) {
	gemm := make([]bool, len(prog.Code))
	for i := range prog.Code {
		c := prog.Code[i].Class()
		gemm[i] = c == isa.ClassMMA || c == isa.ClassVSXFMA
	}
	var g uint64
	n, err := isa.NewVM(prog).Run(budget, func(blk []isa.Record) {
		for i := range blk {
			if gemm[blk[i].Idx()] {
				g++
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("gemm ratio %q: %w", prog.Name, err)
	}
	if n == 0 {
		return 0, nil
	}
	return float64(g) / float64(n), nil
}
