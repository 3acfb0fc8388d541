package sampling

import (
	"sort"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
	"power10sim/internal/workloads"
)

// TestRecordingReplaysVMStream: replaying the compact recording must yield
// exactly the records a VMStream produces, for every catalog program at its
// quick budget (half the full budget, floored at 4096 instructions, as the
// experiment harness's quick mode runs it). A small daxpy run to completion
// adds the halt record; the catalog's interpreter-style programs supply
// indirect branches. Where a recording spans several blocks, two replays of
// one range crossing a block boundary must each match the same records too.
func TestRecordingReplaysVMStream(t *testing.T) {
	type tc struct {
		name   string
		prog   *isa.Program
		budget uint64
	}
	var cases []tc
	for name, w := range workloads.Catalog() {
		cases = append(cases, tc{name, w.Prog, max(w.Budget/2, 4096)})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	d := workloads.Daxpy(64, 2)
	cases = append(cases, tc{"daxpy-to-halt", d.Prog, d.Budget + 1})

	var halts, takenBc, indirect, crossings int
	for _, c := range cases {
		rec := newRecording(c.prog)
		var blocks int
		var n uint64
		if err := rec.fill(c.budget, func(blk []record) { blocks++; n += uint64(len(blk)) }); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if blocks != len(rec.blocks) {
			t.Fatalf("%s: fill handed over %d blocks, recorded %d", c.name, blocks, len(rec.blocks))
		}
		got := rec.replay(0, n)
		want := trace.NewVMStream(c.prog, c.budget)
		var all []isa.DynInst
		for i := 0; ; i++ {
			w, wok := want.Next()
			g, gok := got.Next()
			if wok != gok {
				t.Fatalf("%s: record %d: replay ok=%v, VMStream ok=%v", c.name, i, gok, wok)
			}
			if !wok {
				break
			}
			if g != w {
				t.Fatalf("%s: record %d: replay %+v, VMStream %+v", c.name, i, g, w)
			}
			all = append(all, w)
			switch c.prog.Code[w.Idx].Op {
			case isa.OpHalt:
				halts++
			case isa.OpBc:
				if w.Taken {
					takenBc++
				}
			case isa.OpBr:
				indirect++
			}
		}
		if err := want.Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != uint64(len(all)) {
			t.Fatalf("%s: fill handed over %d records, VMStream produced %d", c.name, n, len(all))
		}
		if n <= blockLen {
			continue
		}
		crossings++
		from, to := uint64(blockLen-7), min(n, 2*blockLen+3)
		for pass := 0; pass < 2; pass++ {
			s := rec.replay(from, to)
			for i := from; i < to; i++ {
				if g, ok := s.Next(); !ok || g != all[i] {
					t.Fatalf("%s: pass %d: replay [%d,%d) record %d: %+v (ok=%v), want %+v",
						c.name, pass, from, to, i, g, ok, all[i])
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatalf("%s: pass %d: replay [%d,%d) ran past its end", c.name, pass, from, to)
			}
		}
	}
	if halts == 0 || takenBc == 0 || indirect == 0 || crossings == 0 {
		t.Fatalf("coverage gap: %d halts, %d taken conditional branches, %d indirect branches, %d block crossings",
			halts, takenBc, indirect, crossings)
	}
}
