package uarch

import (
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
	"power10sim/internal/workloads"
)

// warmWindow simulates recs on cfg at SMT1 from ws (cold when ws is nil).
func warmWindow(t *testing.T, cfg *Config, prog *isa.Program, recs []isa.DynInst, ws *WarmState) Activity {
	t.Helper()
	var opts []SimOption
	if ws != nil {
		opts = append(opts, WithWarmState(ws))
	}
	res, err := Simulate(cfg, []trace.Stream{trace.NewSliceStream(prog, recs)}, 10_000_000, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Activity
}

// warmCase is a trace split into a warmed prefix and the window after it.
type warmCase struct {
	name           string
	prog           *isa.Program
	prefix, window []isa.DynInst
}

// warmCases are a streaming kernel (prefetcher streams, TLB) and an
// interpreter (indirect branches, I-cache footprint).
func warmCases(t *testing.T) []warmCase {
	t.Helper()
	var out []warmCase
	for _, w := range []*workloads.Workload{workloads.Daxpy(4096, 3), workloads.Interp()} {
		recs, err := trace.Capture(w.Prog, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, warmCase{w.Name, w.Prog, recs[:24_000], recs[24_000:]})
	}
	return out
}

// TestWarmChunksMatchOnePass: warming a prefix in several calls leaves the
// state one call over the whole prefix leaves, so a sampler can advance one
// state forward from window to window instead of replaying from zero. The
// pseudo-clock must run on across calls: on POWER9's streaming window a
// clock restarted per call ages the prefetcher streams differently.
func TestWarmChunksMatchOnePass(t *testing.T) {
	for _, cfg := range []*Config{POWER9(), POWER10()} {
		for _, tc := range warmCases(t) {
			t.Run(cfg.Name+"/"+tc.name, func(t *testing.T) { testWarmChunks(t, cfg, tc) })
		}
	}
}

func testWarmChunks(t *testing.T, cfg *Config, tc warmCase) {
	one := NewWarmState(cfg)
	if err := one.Warm(trace.NewSliceStream(tc.prog, tc.prefix), 0); err != nil {
		t.Fatal(err)
	}
	chunked := NewWarmState(cfg)
	for _, cut := range [][2]int{{0, 1}, {1, 7_000}, {7_000, 7_000}, {7_000, 24_000}} {
		if err := chunked.Warm(trace.NewSliceStream(tc.prog, tc.prefix[cut[0]:cut[1]]), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := warmWindow(t, cfg, tc.prog, tc.window, one)
	if got := warmWindow(t, cfg, tc.prog, tc.window, chunked); got != want {
		t.Errorf("window after chunked warming differs from one pass (cycles %d vs %d, L1D misses %d vs %d)",
			got.Cycles, want.Cycles, got.L1DMisses, want.L1DMisses)
	}
	// Every structure the state carries must reach the window.
	cold := warmWindow(t, cfg, tc.prog, tc.window, nil)
	for _, c := range []struct {
		what       string
		warm, cold uint64
	}{
		{"I-cache misses", want.ICacheMisses, cold.ICacheMisses},
		{"L2 misses", want.L2Misses, cold.L2Misses},
		{"TLB misses", want.TLBMisses, cold.TLBMisses},
		{"branch mispredicts", want.BranchMispredicts, cold.BranchMispredicts},
		{"prefetches", want.Prefetches, cold.Prefetches},
	} {
		if c.warm >= c.cold {
			t.Errorf("%s: %d from the warm state, %d cold", c.what, c.warm, c.cold)
		}
	}
}

// TestWarmStateCopyIsIndependent: a copy starts equal to its source, and
// warming either afterwards leaves the other as it was.
func TestWarmStateCopyIsIndependent(t *testing.T) {
	cfg := POWER10()
	for _, tc := range warmCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			src := NewWarmState(cfg)
			if err := src.Warm(trace.NewSliceStream(tc.prog, tc.prefix[:12_000]), 0); err != nil {
				t.Fatal(err)
			}
			want := warmWindow(t, cfg, tc.prog, tc.window, src)
			cp := NewWarmState(cfg)
			cp.CopyFrom(src)
			if got := warmWindow(t, cfg, tc.prog, tc.window, cp); got != want {
				t.Errorf("copy: %d cycles, source: %d", got.Cycles, want.Cycles)
			}
			if err := cp.Warm(trace.NewSliceStream(tc.prog, tc.prefix[12_000:]), 0); err != nil {
				t.Fatal(err)
			}
			if got := warmWindow(t, cfg, tc.prog, tc.window, src); got != want {
				t.Errorf("warming the copy moved the source: %d cycles, want %d", got.Cycles, want.Cycles)
			}
			if got := warmWindow(t, cfg, tc.prog, tc.window, cp); got == want {
				t.Error("warming the copy further changed nothing")
			}
			cp.Reset()
			if got, cold := warmWindow(t, cfg, tc.prog, tc.window, cp), warmWindow(t, cfg, tc.prog, tc.window, nil); got != cold {
				t.Errorf("reset state: %d cycles, cold: %d", got.Cycles, cold.Cycles)
			}
		})
	}
}

// TestWarmStateConfigMismatch: a warm state's arrays are sized by its
// Config, so simulating it on another config is an error, not a silently
// truncated copy.
func TestWarmStateConfigMismatch(t *testing.T) {
	w := workloads.Daxpy(64, 2)
	ws := NewWarmState(POWER9())
	_, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)}, 10_000_000, WithWarmState(ws))
	if err == nil {
		t.Fatal("POWER9 warm state simulated on POWER10 without error")
	}
	if err := ws.Warm(trace.NewVMStream(w.Prog, w.Budget), POWER9().SMTMax); err == nil {
		t.Error("warming a thread beyond SMTMax succeeded")
	}
}
