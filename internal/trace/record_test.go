package trace

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"power10sim/internal/isa"
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
		rec := NewRecording(c.prog)
		var blocks int
		var n uint64
		if err := rec.Fill(c.budget, func(blk []isa.Record) { blocks++; n += uint64(len(blk)) }); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if blocks != len(rec.blocks) {
			t.Fatalf("%s: fill handed over %d blocks, recorded %d", c.name, blocks, len(rec.blocks))
		}
		got := rec.Replay(0, n)
		want := NewVMStream(c.prog, c.budget)
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
			s := rec.Replay(from, to)
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

// TestReadAheadMatchesVMStream: the read-ahead stream must yield exactly
// VMStream's records for every catalog program. A program that halts within
// four times its budget runs at one below its dynamic length (the stream
// stops at the budget) and one above it (the stream stops at the halt, whose
// successor PC is rebuilt from the PC table's end entry); one that does not
// runs at its budget.
func TestReadAheadMatchesVMStream(t *testing.T) {
	names := make([]string, 0, len(workloads.Catalog()))
	for name := range workloads.Catalog() {
		names = append(names, name)
	}
	sort.Strings(names)
	var halted int
	for _, name := range names {
		w := workloads.Catalog()[name]
		budgets := []uint64{w.Budget}
		limit := 4 * w.Budget
		n, err := isa.NewVM(w.Prog).Run(limit, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n < limit {
			halted++
			budgets = []uint64{n - 1, n + 1}
		}
		for _, budget := range budgets {
			want := NewVMStream(w.Prog, budget)
			got := NewReadAhead(w.Prog, budget)
			var last isa.DynInst
			for i := 0; ; i++ {
				wv, wok := want.Next()
				gv, gok := got.Next()
				if wok != gok || gv != wv {
					got.Close()
					t.Fatalf("%s at budget %d: record %d: read-ahead %+v (ok=%v), VMStream %+v (ok=%v)",
						name, budget, i, gv, gok, wv, wok)
				}
				if !wok {
					break
				}
				last = wv
			}
			got.Close()
			if want.Err() != nil || got.Err() != nil {
				t.Fatalf("%s at budget %d: VMStream err %v, read-ahead err %v", name, budget, want.Err(), got.Err())
			}
			if budget > n && w.Prog.Code[last.Idx].Op != isa.OpHalt {
				t.Fatalf("%s at budget %d: last record %+v is not the halt", name, budget, last)
			}
		}
	}
	if halted == 0 {
		t.Fatal("no catalog program halted, so no halt record was compared")
	}
}

// TestReadAheadCloseAndPanic: Close before the first read and mid-stream,
// and a panic in the VM re-raised on the reader, each leave no goroutine
// behind. After Close the stream delivers nothing, and Close may repeat.
func TestReadAheadCloseAndPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A goroutine leaves the count just after the channel close its
		// reader sees, so wait for the count to come back.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p := countedLoop(1_000_000)
	for _, reads := range []int{0, 3 * blockLen / 2} {
		s := NewReadAhead(p, 5_000_000)
		for i := 0; i < reads; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("stream ended after %d records", i)
			}
		}
		s.Close()
		s.Close()
		if _, ok := s.Next(); ok {
			t.Errorf("closed after %d reads: stream still delivers", reads)
		}
		settled(fmt.Sprintf("Close after %d reads", reads))
	}

	// A register the VM does not have (Program.Validate would refuse it).
	badReg := &isa.Program{Name: "badreg", Code: []isa.Inst{{Op: isa.OpLi, Dst: isa.GPR(200), Imm: 1}, {Op: isa.OpHalt}}}
	s := NewReadAhead(badReg, 100)
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Error("VM panic: no runtime error reached the reader's goroutine")
			}
		}()
		s.Next()
		t.Error("VM panic: Next returned")
	}()
	s.Close()
	settled("VM panic")
}
