package isa_test

import (
	"slices"
	"strings"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/workloads"
)

// pinBudget is the budget every catalog program runs at in
// TestCatalogTracePinned: sixteen 4,096-record blocks.
const pinBudget = 1 << 16

// pinnedTraces holds, for every catalog program run for up to pinBudget
// instructions, the number of records, the digest of the records (traceDigest)
// and the VM's final StateHash, as a one-instruction-at-a-time interpreter
// produced them before the block loop replaced it.
var pinnedTraces = []struct {
	name      string
	n         uint64
	trace, vm uint64
}{
	{"active-idle", 15005, 0x88d94ceda29c8629, 0xaf8562b29bef8cb7},
	{"bertlarge-mma", 65536, 0x04e2804470297fa8, 0x9afdeb02fe98084d},
	{"bertlarge-vsu", 65536, 0xe9baa9134575219e, 0xdce2af4b1c78e76b},
	{"boardeval", 65536, 0x69981bf50c4bbd68, 0xa3e586041a449f66},
	{"compile", 65536, 0x409c0b5a33641463, 0x1e1081fa512ce4e7},
	{"compress", 65536, 0xab773d1f816b7071, 0x6ba208500b0347df},
	{"conv2d-mma", 6591, 0x1f5186d103c407fa, 0xcd0de76ebf092859},
	{"daxpy", 65536, 0x6090e3ab557d0b5e, 0xd3ffab2fe35c9d6a},
	{"dft-mma", 11823, 0x10da5e0db5b3c30c, 0xdb4ed178d2e86e83},
	{"dgemm-mma", 65536, 0x5d24f9d054c0f01a, 0x0f50bcaff6760246},
	{"dgemm-vsu", 65536, 0x1c66f267601752c2, 0x0fbf4ed2a7ea030f},
	{"dsim", 65536, 0xc34d820bb81c6820, 0x966bc0564ff54486},
	{"gemm-int8-mma", 11399, 0x10153649f7bdb3b8, 0x3ad369029f016436},
	{"graphopt", 65536, 0xd3885ba7a5bf0c89, 0xadbc24a192935ad0},
	{"intcompute", 65536, 0xf2ac778d38b8832a, 0xa17b84db16accf0c},
	{"interp", 65536, 0x620034eeac2d1b10, 0x9f950c8477e3efa4},
	{"mediavec", 65536, 0x3f906b5cb9f4d6ef, 0x099e385d1acdf9b5},
	{"pathfind", 65536, 0xf0851cb21b2d593f, 0x719da89f3e186b8f},
	{"resnet50-mma", 65536, 0x7aa5c3a047f5050a, 0xafc94e4e91e9dfd0},
	{"resnet50-vsu", 65536, 0xcddc4cdf1ccae2f5, 0xafc94e4e91e9dfd0},
	{"sgemm-mma", 39052, 0x2a85321a4a55c1a1, 0x3c340355043b88ff},
	{"sgemm-vsu", 65536, 0xf1ac1a675092b3e7, 0xcc9db6c580bef0ac},
	{"stressmark", 65536, 0x69ddfb938a57c2da, 0x56280ae99f972966},
	{"stressmark-mma", 65536, 0x439fc6f5155a050c, 0xf04cb078534f44b9},
	{"trsv-unit-lower", 14019, 0x410b718912108eac, 0x6ae77e169919cafd},
	{"xmltrans", 65536, 0x5a4e00f63e2879e7, 0x978568ede2e70a7a},
}

// traceDigest folds records into h: each one's static index, next index,
// taken bit and effective address, in order.
func traceDigest(h uint64, recs []isa.Record) uint64 {
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for i := range recs {
		r := &recs[i]
		var taken uint64
		if r.Taken() {
			taken = 1
		}
		mix(uint64(r.Idx()))
		mix(uint64(r.Next()))
		mix(taken)
		mix(r.EA())
	}
	return h
}

const digestSeed = 14695981039346656037

// fillAll runs vm for up to budget instructions through Fill, bufLen records
// at a time, and returns the number executed and the records' digest.
func fillAll(vm *isa.VM, budget uint64, bufLen int) (uint64, uint64, error) {
	buf := make([]isa.Record, bufLen)
	h := uint64(digestSeed)
	var n uint64
	for n < budget {
		lim := min(budget-n, uint64(bufLen))
		k, err := vm.Fill(buf[:lim])
		h = traceDigest(h, buf[:k])
		n += uint64(k)
		if err != nil || uint64(k) < lim {
			return n, h, err
		}
	}
	return n, h, nil
}

// TestCatalogTracePinned holds the block interpreter to the traces and final
// states pinned above, for every catalog program, whether Fill is handed 1,
// 7 or 4,096 records at a time (blocks that end on every kind of
// instruction, a halt mid-block included), through Run's blocks, and through
// the record-free Run the kernel sizing and fault-injection passes use.
func TestCatalogTracePinned(t *testing.T) {
	cat := workloads.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	slices.Sort(names)
	if len(names) != len(pinnedTraces) {
		t.Fatalf("catalog has %d programs, %d pinned", len(names), len(pinnedTraces))
	}
	for i, want := range pinnedTraces {
		if names[i] != want.name {
			t.Fatalf("catalog entry %d is %q, pinned %q", i, names[i], want.name)
		}
		prog := cat[want.name].Prog
		check := func(how string, vm *isa.VM, n, h uint64, checkTrace bool) {
			t.Helper()
			if n != want.n || vm.Retired() != want.n {
				t.Errorf("%s %s: %d records (%d retired), pinned %d", want.name, how, n, vm.Retired(), want.n)
			}
			if checkTrace && h != want.trace {
				t.Errorf("%s %s: trace digest %#016x, pinned %#016x", want.name, how, h, want.trace)
			}
			if got := vm.StateHash(); got != want.vm {
				t.Errorf("%s %s: state hash %#016x, pinned %#016x", want.name, how, got, want.vm)
			}
		}
		for _, bufLen := range []int{1, 7, 4096} {
			vm := isa.NewVM(prog)
			n, h, err := fillAll(vm, pinBudget, bufLen)
			if err != nil {
				t.Fatalf("%s: %v", want.name, err)
			}
			check("Fill", vm, n, h, true)
			if n < pinBudget {
				if !vm.Halted() {
					t.Errorf("%s: stopped at %d without halting", want.name, n)
				}
				if k, err := vm.Fill(make([]isa.Record, 8)); k != 0 || err != nil {
					t.Errorf("%s: Fill after the halt executed %d (err %v)", want.name, k, err)
				}
			}
		}
		vm := isa.NewVM(prog)
		h := uint64(digestSeed)
		n, err := vm.Run(pinBudget, func(blk []isa.Record) { h = traceDigest(h, blk) })
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		check("Run", vm, n, h, true)
		vm = isa.NewVM(prog)
		if n, err = vm.Run(pinBudget, nil); err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		check("record-free Run", vm, n, 0, false)
	}
}

// TestBlockStopsAtIndirectBranchFault: an out-of-range indirect branch after
// 24 instructions ends every block size at the branch. The records before
// it, the error, and the VM's position, retired count and state after it
// are pinned to what the one-instruction-at-a-time interpreter gave, and a
// further Fill fails again without executing.
func TestBlockStopsAtIndirectBranchFault(t *testing.T) {
	p := isa.NewBuilder("badbr").
		Li(isa.GPR(1), 0).
		Li(isa.GPR(2), 5).
		Li(isa.GPR(5), 0x4000).
		Label("top").
		St(isa.GPR(1), isa.GPR(5), 0).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Addi(isa.GPR(5), isa.GPR(5), 8).
		Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top").
		Li(isa.GPR(3), 999).
		Br(isa.GPR(3)).
		Halt().
		MustBuild()
	const (
		wantN     = 24
		wantTrace = 0xcdcc0fd08cb0b63d
		wantPC    = 8
		wantState = 0xf340da2c5693a98a
		wantErr   = "badbr @8: indirect target 999 out of range"
	)
	for _, bufLen := range []int{1, 7, 4096} {
		vm := isa.NewVM(p)
		n, h, err := fillAll(vm, 1000, bufLen)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("buffers of %d: error %v, want %q", bufLen, err, wantErr)
		}
		if n != wantN || h != wantTrace {
			t.Errorf("buffers of %d: %d records with digest %#016x, want %d with %#016x", bufLen, n, h, wantN, uint64(wantTrace))
		}
		if vm.PC() != wantPC || vm.Retired() != wantN || vm.Halted() {
			t.Errorf("buffers of %d: PC %d, retired %d, halted %v; want %d, %d, false",
				bufLen, vm.PC(), vm.Retired(), vm.Halted(), wantPC, wantN)
		}
		if got := vm.StateHash(); got != wantState {
			t.Errorf("buffers of %d: state hash %#016x, want %#016x", bufLen, got, uint64(wantState))
		}
		if k, err := vm.Fill(make([]isa.Record, 4)); k != 0 || err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("buffers of %d: Fill after the fault executed %d, error %v", bufLen, k, err)
		}
	}
}
