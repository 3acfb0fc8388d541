package fabric

import (
	"errors"
	"fmt"

	"encoding/json"

	"power10sim/internal/isa"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// The codec translates between the runner's in-memory request/result values
// and their JSON wire forms. The design mirrors the disk cache on purpose:
//
//   - A WireRequest ships the full simulation identity by value — the entire
//     uarch.Config, the program's instructions and initial state, and every
//     run parameter — never a name to be resolved remotely. The worker
//     recomputes runner.ContentKey over the decoded request and refuses the
//     unit on mismatch, so a codec bug or corrupted payload can never make a
//     worker silently simulate the wrong point.
//   - A WireResult ships only simulator ground truth (Activity, upset
//     outcome, sampling metadata), the runner.GroundTruth a disk-cache entry
//     stores; the coordinator rebuilds the power Report locally on decode. A
//     result that crossed the wire is therefore indistinguishable from a
//     disk-cache load, which is the established determinism argument for
//     byte-identical merged output.

// WireRequest is the encoded simulation request. Program fields are copied
// into wireProgram rather than embedding *isa.Program: the program's two
// lazy fields, the PC table and the Fingerprint, each behind a sync.Once,
// must not be copied or serialized, and the exported subset is exactly the
// content the fingerprint covers. The decoded program computes both afresh.
type WireRequest struct {
	Schema    string         `json:"schema"`
	Config    uarch.Config   `json:"config"`
	Workload  wireWorkload   `json:"workload"`
	SMT       int            `json:"smt"`
	Budget    uint64         `json:"budget"`
	Warmup    uint64         `json:"warmup"`
	MaxCycles uint64         `json:"max_cycles"`
	Upset     *uarch.Upset   `json:"upset,omitempty"`
	Sample    *sampling.Spec `json:"sample,omitempty"`
}

type wireWorkload struct {
	Name     string             `json:"name"`
	Category workloads.Category `json:"category"`
	Weight   float64            `json:"weight"`
	Budget   uint64             `json:"budget"`
	Warmup   uint64             `json:"warmup"`
	Program  wireProgram        `json:"program"`
}

type wireProgram struct {
	Name     string            `json:"name"`
	Code     []isa.Inst        `json:"code"`
	Entry    int               `json:"entry"`
	InitGPR  map[int]uint64    `json:"init_gpr,omitempty"`
	InitMem  map[uint64][]byte `json:"init_mem,omitempty"`
	CodeBase uint64            `json:"code_base,omitempty"`
}

// WireResult is the completed-unit payload: the runner.GroundTruth fields
// plus the unit key it answers and the error taxonomy needed for the
// coordinator's requeue decision.
type WireResult struct {
	Key      string              `json:"key"`
	Activity *uarch.Activity     `json:"activity,omitempty"`
	Upset    *uarch.UpsetOutcome `json:"upset,omitempty"`
	Sampling *sampling.Meta      `json:"sampling,omitempty"`
	// Attempts is the worker-local execution count (its own retry policy).
	Attempts int `json:"attempts,omitempty"`
	// Err is the flattened error for failed units. Transient distinguishes
	// infrastructure failures (requeue on another worker) from deterministic
	// simulation errors (final: every worker would reproduce them).
	Err       string `json:"error,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	// StartedUnixMicro / FinishedUnixMicro bracket the unit's execution on
	// the worker's own wall clock (unix microseconds). The coordinator maps
	// them into its time base with the worker's reported clock offset when
	// building the merged fleet trace; they carry no other semantics.
	StartedUnixMicro  int64 `json:"started_unix_micro,omitempty"`
	FinishedUnixMicro int64 `json:"finished_unix_micro,omitempty"`
}

// EncodeRequest converts a runner request into its wire payload, returning
// the content key that names the unit. Requests the fabric cannot ship —
// chaos-injected runs, or requests without a keyable identity — return
// (nil, "", err) and stay on the local execution path.
func EncodeRequest(req runner.Request) (payload []byte, key string, err error) {
	if req.Cfg == nil || req.W == nil || req.W.Prog == nil {
		return nil, "", errors.New("fabric: request missing config or workload")
	}
	if req.Chaos != nil {
		// Chaos failure budgets are per-process state; shipping them would
		// decouple the budget from the spec instance that owns it.
		return nil, "", errors.New("fabric: chaos requests are not distributable")
	}
	key, ok := runner.ContentKey(req)
	if !ok {
		return nil, "", errors.New("fabric: request is not content-keyable")
	}
	p := req.W.Prog
	wr := WireRequest{
		Schema: ProtocolVersion,
		Config: *req.Cfg,
		Workload: wireWorkload{
			Name:     req.W.Name,
			Category: req.W.Category,
			Weight:   req.W.Weight,
			Budget:   req.W.Budget,
			Warmup:   req.W.Warmup,
			Program: wireProgram{
				Name:     p.Name,
				Code:     p.Code,
				Entry:    p.Entry,
				InitGPR:  p.InitGPR,
				InitMem:  p.InitMem,
				CodeBase: p.CodeBase,
			},
		},
		SMT:       req.SMT,
		Budget:    req.Budget,
		Warmup:    req.Warmup,
		MaxCycles: req.MaxCycles,
		Upset:     req.Upset,
		Sample:    req.Sample,
	}
	payload, err = json.Marshal(&wr)
	if err != nil {
		return nil, "", fmt.Errorf("fabric: encode request: %w", err)
	}
	return payload, key, nil
}

// DecodeRequest reconstructs a runner request from a unit payload and
// verifies its content key against the unit's: the program fingerprint is
// content-based, so a faithful round trip reproduces the key bit-for-bit and
// any divergence proves the payload does not describe the unit it claims to.
// It also refuses a unit the worker cannot run before any simulation state
// is built: a config the core cannot be built from, an SMT level above the
// config's SMTMax, or a malformed program.
func DecodeRequest(payload []byte, wantKey string) (runner.Request, error) {
	var wr WireRequest
	if err := json.Unmarshal(payload, &wr); err != nil {
		return runner.Request{}, fmt.Errorf("fabric: decode request: %w", err)
	}
	if wr.Schema != ProtocolVersion {
		return runner.Request{}, fmt.Errorf("fabric: protocol skew: payload %q, worker %q", wr.Schema, ProtocolVersion)
	}
	cfg := wr.Config
	req := runner.Request{
		Cfg: &cfg,
		W: &workloads.Workload{
			Name:     wr.Workload.Name,
			Category: wr.Workload.Category,
			Weight:   wr.Workload.Weight,
			Budget:   wr.Workload.Budget,
			Warmup:   wr.Workload.Warmup,
			Prog: &isa.Program{
				Name:     wr.Workload.Program.Name,
				Code:     wr.Workload.Program.Code,
				Entry:    wr.Workload.Program.Entry,
				InitGPR:  wr.Workload.Program.InitGPR,
				InitMem:  wr.Workload.Program.InitMem,
				CodeBase: wr.Workload.Program.CodeBase,
			},
		},
		SMT:       wr.SMT,
		Budget:    wr.Budget,
		Warmup:    wr.Warmup,
		MaxCycles: wr.MaxCycles,
		Upset:     wr.Upset,
		Sample:    wr.Sample,
	}
	if err := cfg.Validate(); err != nil {
		return runner.Request{}, fmt.Errorf("fabric: decode request: %w", err)
	}
	if wr.SMT > cfg.SMTMax {
		return runner.Request{}, fmt.Errorf("fabric: decode request: SMT%d exceeds config %q SMTMax %d", wr.SMT, cfg.Name, cfg.SMTMax)
	}
	if err := req.W.Prog.Validate(); err != nil {
		return runner.Request{}, fmt.Errorf("fabric: decode request: %w", err)
	}
	got, ok := runner.ContentKey(req)
	if !ok {
		return runner.Request{}, errors.New("fabric: decoded request is not content-keyable")
	}
	if wantKey != "" && got != wantKey {
		return runner.Request{}, fmt.Errorf("fabric: content key mismatch: unit %s, payload %s", short(wantKey), short(got))
	}
	return req, nil
}

// EncodeResult flattens a runner result for the wire. Only ground truth
// travels: the power Report is dropped (recomputed on decode) and the error
// is reduced to message + transience class.
func EncodeResult(key string, res runner.Result) WireResult {
	wr := WireResult{
		Key:      key,
		Activity: res.Activity,
		Upset:    res.Upset,
		Sampling: res.Sampling,
		Attempts: res.Attempts,
	}
	if res.Err != nil {
		wr.Err = res.Err.Error()
		wr.Transient = runner.IsTransient(res.Err)
	}
	return wr
}

// DecodeResult rebuilds a runner result on the coordinator through
// runner.GroundTruth.Rebuild, the derivation a disk-cache load performs: the
// power Report is recomputed under the original request's config. Each call
// allocates fresh Activity/Report values, so concurrent waiters on one unit
// never share mutable state.
func DecodeResult(wr WireResult, req runner.Request) (runner.Result, error) {
	if wr.Err != "" {
		err := errors.New(wr.Err)
		if wr.Transient {
			err = runner.Transient(err)
		}
		return runner.Result{Err: err, Attempts: wr.Attempts}, nil
	}
	res, err := runner.GroundTruth{Activity: wr.Activity, Upset: wr.Upset, Sampling: wr.Sampling}.Rebuild(req)
	if err != nil {
		return runner.Result{}, fmt.Errorf("fabric: %w", err)
	}
	res.Attempts = wr.Attempts
	return res, nil
}

// short abbreviates a content key for log lines and error messages.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
