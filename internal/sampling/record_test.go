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
// indirect branches.
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

	var halts, takenBc, indirect int
	for _, c := range cases {
		rec := newRecording(c.prog, c.budget)
		// Extend in uneven steps, as lazily reached window ends do.
		for _, n := range []uint64{c.budget / 3, c.budget / 7, c.budget} {
			if _, err := rec.upTo(n); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got := rec.replay(0, uint64(len(rec.recs)))
		want := trace.NewVMStream(c.prog, c.budget)
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
	}
	if halts == 0 || takenBc == 0 || indirect == 0 {
		t.Fatalf("coverage gap: %d halts, %d taken conditional branches, %d indirect branches",
			halts, takenBc, indirect)
	}
}
