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

// recording is a sampled run's single functional pass: one VM, executed on
// demand and recorded compactly, from which every representative window's
// records and every thread's functional-warming prefix are sliced.
type recording struct {
	prog *isa.Program
	pcs  []uint64 // Program.PC for every static index, plus the end address
	vm   *isa.VM
	recs []record
}

// newRecording prepares a recording of at most n instructions. The buffer is
// sized once, so extending it never copies what is already recorded.
func newRecording(prog *isa.Program, n uint64) *recording {
	pcs := make([]uint64, len(prog.Code)+1)
	for i := range pcs {
		pcs[i] = prog.PC(i)
	}
	return &recording{prog: prog, pcs: pcs, vm: isa.NewVM(prog), recs: make([]record, 0, n)}
}

// upTo returns the first n records, executing the VM as far as needed (the
// recording stops short of n only where the program halts first).
func (r *recording) upTo(n uint64) ([]record, error) {
	for uint64(len(r.recs)) < n {
		d, ok, err := r.vm.Step()
		if err != nil {
			return nil, fmt.Errorf("sampling: functional pass: %w", err)
		}
		if !ok {
			break
		}
		r.recs = append(r.recs, pack(d, r.vm.PC()))
	}
	return r.recs[:min(n, uint64(len(r.recs)))], nil
}

// replay returns a stream over the already recorded records [from, to).
func (r *recording) replay(from, to uint64) *replay {
	return &replay{prog: r.prog, pcs: r.pcs, recs: r.recs[from:to]}
}

// replay is a trace.Stream over a slice of a recording.
type replay struct {
	prog *isa.Program
	pcs  []uint64
	recs []record
	pos  int
}

// Next implements trace.Stream.
func (s *replay) Next() (isa.DynInst, bool) {
	if s.pos >= len(s.recs) {
		return isa.DynInst{}, false
	}
	s.pos++
	return s.recs[s.pos-1].dynInst(s.pcs), true
}

// Program implements trace.Stream.
func (s *replay) Program() *isa.Program { return s.prog }

// Reset implements trace.Stream.
func (s *replay) Reset() { s.pos = 0 }
