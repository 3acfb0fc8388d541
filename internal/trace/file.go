package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"power10sim/internal/isa"
)

// Compact binary serialization of dynamic instruction traces, for the
// cross-model validation workflows of Section III-A (the same trace file
// replays on RTLSim-level and M1-level models). Records are delta-encoded:
// static index deltas and effective-address deltas are zigzag varints, so
// loop-heavy traces compress to a few bytes per instruction. PCs are not
// stored — they are reconstructed from the program.

const traceMagic = "P10T"

// maxPrealloc caps the records ReadTrace allocates from the header count
// before reading any: a longer trace grows by append, so a count the file
// cannot back fails at end of input instead of exhausting memory.
const maxPrealloc = 1 << 16

// WriteTrace serializes records to w. The program is identified by name
// only; callers pair trace files with program images (isa.EncodeProgram).
func WriteTrace(w io.Writer, progName string, recs []isa.DynInst) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(len(progName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(progName); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(recs))); err != nil {
		return err
	}
	var prevIdx int64
	var prevEA uint64
	for i := range recs {
		r := &recs[i]
		if err := putVarint(int64(r.Idx) - prevIdx); err != nil {
			return err
		}
		prevIdx = int64(r.Idx)
		flags := byte(0)
		if r.Taken {
			flags |= 1
		}
		if r.EA != 0 {
			flags |= 2
		}
		flags |= r.Thread << 2
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if r.EA != 0 {
			if err := putVarint(int64(r.EA) - int64(prevEA)); err != nil {
				return err
			}
			prevEA = r.EA
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace and rebuilds the PC
// fields from the given program.
func ReadTrace(r io.Reader, prog *isa.Program) (string, []isa.DynInst, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return "", nil, err
	}
	if string(magic) != traceMagic {
		return "", nil, errors.New("trace: bad magic")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, err
	}
	nameBuf, err := io.ReadAll(io.LimitReader(br, int64(min(nameLen, math.MaxInt64))))
	if err != nil {
		return "", nil, err
	}
	if uint64(len(nameBuf)) != nameLen {
		return "", nil, fmt.Errorf("trace: name: %w", io.ErrUnexpectedEOF)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, err
	}
	recs := make([]isa.DynInst, 0, min(count, maxPrealloc))
	var prevIdx int64
	var prevEA uint64
	for i := uint64(0); i < count; i++ {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return "", nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		idx := prevIdx + d
		prevIdx = idx
		if idx < 0 || int(idx) >= len(prog.Code) {
			return "", nil, fmt.Errorf("trace: record %d: index %d out of program", i, idx)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return "", nil, err
		}
		rec := isa.DynInst{
			Idx:    int32(idx),
			Taken:  flags&1 != 0,
			Thread: flags >> 2,
			PC:     prog.PC(int(idx)),
		}
		if flags&2 != 0 {
			de, err := binary.ReadVarint(br)
			if err != nil {
				return "", nil, err
			}
			rec.EA = uint64(int64(prevEA) + de)
			prevEA = rec.EA
		}
		recs = append(recs, rec)
	}
	// Reconstruct NextPC: the following record's PC, or fallthrough.
	for i := range recs {
		if i+1 < len(recs) {
			recs[i].NextPC = recs[i+1].PC
		} else {
			recs[i].NextPC = recs[i].PC + prog.Code[recs[i].Idx].Bytes()
		}
	}
	return string(nameBuf), recs, nil
}
