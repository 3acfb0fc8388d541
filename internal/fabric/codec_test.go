package fabric

import (
	"encoding/json"
	"errors"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// wireUnit encodes a small valid daxpy unit, lets mutate edit its wire
// form, and returns the payload bytes.
func wireUnit(t testing.TB, mutate func(*WireRequest)) []byte {
	t.Helper()
	req := runner.Request{Cfg: uarch.POWER10(), W: workloads.Daxpy(64, 8), SMT: 1,
		Budget: 2000, MaxCycles: 200_000}
	payload, _, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	var wr WireRequest
	if err := json.Unmarshal(payload, &wr); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&wr)
	}
	if payload, err = json.Marshal(&wr); err != nil {
		t.Fatal(err)
	}
	return payload
}

// unrunnableUnits are payloads that decode as JSON and carry the protocol
// version but describe nothing a worker can simulate. Before DecodeRequest
// checked them, each reached the core: SMT 10000 built 10 000 VM streams,
// a zero L1D line size divided by zero, a zero L1D associativity
// dereferenced a nil cache, an out-of-range entry or empty program
// returned a one-cycle "success", and an initial r40 or a VSR operand to an
// integer add indexed past the VM's 32 GPRs.
var unrunnableUnits = []struct {
	name   string
	mutate func(*WireRequest)
}{
	{"smt-above-max", func(wr *WireRequest) { wr.SMT = 10_000 }},
	{"l1d-zero-line", func(wr *WireRequest) { wr.Config.L1D.LineBytes = 0 }},
	{"l1d-zero-assoc", func(wr *WireRequest) { wr.Config.L1D.Assoc = 0 }},
	{"entry-out-of-range", func(wr *WireRequest) { wr.Workload.Program.Entry = 1 << 30 }},
	{"empty-code", func(wr *WireRequest) { wr.Workload.Program.Code = nil }},
	{"init-gpr-out-of-range", func(wr *WireRequest) { wr.Workload.Program.InitGPR = map[int]uint64{40: 1} }},
	{"vsr-operand-to-addi", func(wr *WireRequest) {
		code := wr.Workload.Program.Code
		for i := range code {
			if code[i].Op == isa.OpAddi {
				code[i].A = isa.VSR(40)
				return
			}
		}
		panic("daxpy has no addi")
	}},
}

func TestDecodeRequestRejectsUnrunnableUnits(t *testing.T) {
	if _, err := DecodeRequest(wireUnit(t, nil), ""); err != nil {
		t.Fatalf("valid unit refused: %v", err)
	}
	for _, tc := range unrunnableUnits {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequest(wireUnit(t, tc.mutate), ""); err == nil {
				t.Error("decoded a unit the worker cannot run")
			}
		})
	}
}

// FuzzDecodeRequest: a payload either fails to decode, or the request it
// decodes to runs to a result without panicking the worker. The budget and
// cycle limit are capped here so each input runs in milliseconds; the
// decoder itself does not bound them. The committed corpus under
// testdata/fuzz/FuzzDecodeRequest holds a valid unit and each of
// unrunnableUnits.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload, "")
		if err != nil {
			return
		}
		req.Budget = min(req.Budget, 2000)
		req.MaxCycles = min(req.MaxCycles, 200_000)
		res := runner.New(1).Do(req)
		if pe := (*runner.PanicError)(nil); errors.As(res.Err, &pe) {
			t.Fatalf("decoded request panicked the worker: %v\n%s", pe.Value, pe.Stack)
		}
	})
}

// FuzzDecodeResult: a result payload either fails to parse, decodes to an
// error (DecodeResult's own, or the failed unit's), or rebuilds a result
// with both Activity and Report. The committed corpus under
// testdata/fuzz/FuzzDecodeResult holds a completed unit, a failed one and
// one without activity.
func FuzzDecodeResult(f *testing.F) {
	req := runner.Request{Cfg: uarch.POWER10(), W: workloads.Daxpy(64, 8), SMT: 1, Budget: 2000, MaxCycles: 200_000}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var wr WireResult
		if json.Unmarshal(payload, &wr) != nil {
			return
		}
		res, err := DecodeResult(wr, req)
		if err != nil || res.Err != nil {
			return
		}
		if res.Activity == nil || res.Report == nil {
			t.Fatalf("decoded a result without Activity or Report: %+v", res)
		}
	})
}
