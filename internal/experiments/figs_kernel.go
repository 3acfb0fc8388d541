package experiments

import (
	"fmt"

	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// ---------------------------------------------------------------------------
// Fig. 5: DGEMM on VSU vs MMA
// ---------------------------------------------------------------------------

// Fig5Row is one bar pair of Fig. 5, normalized to POWER9 VSU.
type Fig5Row struct {
	Name          string
	FlopsPerCycle float64
	Power         float64
	RelFlops      float64 // vs P9 VSU
	RelPower      float64
	PeakFraction  float64
}

// Fig5Result is the DGEMM kernel study.
type Fig5Result struct {
	Rows []Fig5Row
}

// fig5GEMM is the kernel size used for the study (K large enough that the
// B panel streams beyond the L1).
var fig5GEMM = workloads.GEMMSize{M: 16, N: 64, K: 256}

// Fig5 measures the OpenBLAS-representative DGEMM kernel: the same VSU
// coding on POWER9 and POWER10, and the MMA coding on POWER10, in warm
// 5K-cycle-window fashion (the kernels' second pass is the measurement
// region). Peaks: 8 / 16 / 32 DP flops per cycle.
func Fig5(o Options) (*Fig5Result, error) {
	vsu, _, err := workloads.DGEMMVSU(fig5GEMM)
	if err != nil {
		return nil, err
	}
	mma, _, err := workloads.DGEMMMMA(fig5GEMM)
	if err != nil {
		return nil, err
	}
	type cfgRun struct {
		name string
		cfg  *uarch.Config
		w    *workloads.Workload
		peak float64
	}
	runs := []cfgRun{
		{"P9 VSU", uarch.POWER9(), vsu, 8},
		{"P10 VSU", uarch.POWER10(), vsu, 16},
		{"P10 MMA", uarch.POWER10(), mma, 32},
	}
	reqs := make([]runner.Request, len(runs))
	for i, cr := range runs {
		reqs[i] = o.request(cr.cfg, cr.w, 1)
	}
	batch, err := runBatch(o, reqs)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	var base Fig5Row
	for i, cr := range runs {
		a, rep := batch[i].Activity, batch[i].Report
		row := Fig5Row{
			Name:          cr.name,
			FlopsPerCycle: a.FlopsPerCycle(),
			Power:         rep.Total,
			PeakFraction:  a.FlopsPerCycle() / cr.peak,
		}
		if i == 0 {
			base = row
		}
		row.RelFlops = row.FlopsPerCycle / base.FlopsPerCycle
		row.RelPower = row.Power / base.Power
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders Fig. 5.
func (r *Fig5Result) Table() string {
	t := &table{header: []string{"code", "flops/cyc", "of peak", "rel flops", "rel power"}}
	for _, row := range r.Rows {
		t.add(row.Name, f2(row.FlopsPerCycle), pct(row.PeakFraction), f2(row.RelFlops), f2(row.RelPower))
	}
	return t.String() +
		"paper: P10 VSU 1.95x flops at 0.678x power (9.94 f/c, 62.1% of peak);\n" +
		"       P10 MMA 5.47x flops at 0.759x power (27.9 f/c, 87.1% of peak); P9 VSU ~64% of peak\n"
}

// ---------------------------------------------------------------------------
// Fig. 6: end-to-end AI inference
// ---------------------------------------------------------------------------

// Fig6Row is one configuration's panel values, normalized to the POWER9
// baseline run of the same model.
type Fig6Row struct {
	Config        string
	GEMMInstRatio float64 // relative GEMM-class instruction fraction
	TotalInsts    float64 // relative dynamic instruction count
	CPI           float64 // relative CPI
	Cycles        float64 // relative total cycles
	Speedup       float64 // total speedup vs POWER9
}

// Fig6Model is one model's three-configuration comparison.
type Fig6Model struct {
	Model string
	Rows  []Fig6Row
}

// Fig6Result holds both models plus the socket projections.
type Fig6Result struct {
	Models []Fig6Model
	// SocketFP32 is the socket-level speedup estimate: core speedup x
	// 2.5x core count x 1.1x bandwidth/software.
	SocketFP32 map[string]float64
	// SocketINT8 extends FP32 with the INT8 MMA throughput advantage.
	SocketINT8 map[string]float64
	// INT8Advantage is the measured xvi8ger4 vs xvf32ger ops/cycle ratio.
	INT8Advantage float64
}

// Fig6 runs ResNet-50 and BERT-Large models on POWER9, POWER10 without MMA
// (VSU coding) and POWER10 with MMA. All eight simulations go through the
// runner as one batch, and each of the four distinct model programs is run
// once more on the VM to count its GEMM instructions.
func Fig6(o Options) (*Fig6Result, error) {
	res := &Fig6Result{SocketFP32: map[string]float64{}, SocketINT8: map[string]float64{}}
	type model struct {
		name string
		w    [2]*workloads.Workload // the VSU and the MMA coding
		gemm [2]float64             // their GEMM instruction ratios
	}
	models := []*model{{name: "ResNet-50"}, {name: "BERT-Large"}}
	for i, mk := range []func(bool) (*workloads.Workload, error){workloads.ResNet50, workloads.BERTLarge} {
		for c, mma := range []bool{false, true} {
			var err error
			if models[i].w[c], err = mk(mma); err != nil {
				return nil, err
			}
		}
	}
	// INT8: measure the int8 vs fp32 MMA throughput on the GEMM kernels.
	i8, err := workloads.GEMMInt8MMA(workloads.GEMMSize{M: 32, N: 64, K: 64})
	if err != nil {
		return nil, err
	}
	f32, _, err := workloads.SGEMMMMA(workloads.GEMMSize{M: 32, N: 64, K: 64})
	if err != nil {
		return nil, err
	}
	runs := []struct {
		name   string
		cfg    *uarch.Config
		coding int // index into model.w
	}{
		{"POWER9 (baseline)", uarch.POWER9(), 0},
		{"POWER10 (w/o MMA)", uarch.POWER10NoMMA(), 0},
		{"POWER10 (w/ MMA)", uarch.POWER10(), 1},
	}
	var reqs []runner.Request
	for _, m := range models {
		for _, run := range runs {
			reqs = append(reqs, o.request(run.cfg, m.w[run.coding], 1))
		}
	}
	p10 := uarch.POWER10()
	reqs = append(reqs, o.request(p10, i8, 1), o.request(p10, f32, 1))
	batch, err := runBatch(o, reqs)
	if err != nil {
		return nil, err
	}
	errs := make([]error, 2*len(models))
	runner.ForEach(o.jobs(), len(errs), func(i int) {
		m, c := models[i/2], i%2
		m.gemm[c], errs[i] = trace.GEMMRatio(m.w[c].Prog, o.scale(m.w[c].Budget))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for mi, m := range models {
		fm := Fig6Model{Model: m.name}
		var baseCycles, baseInsts, baseCPI, baseGEMM float64
		for i, run := range runs {
			a := batch[mi*len(runs)+i].Activity
			gemm := m.gemm[run.coding]
			cycles := float64(a.Cycles)
			insts := float64(a.Instructions)
			cpi := a.CPI()
			if i == 0 {
				baseCycles, baseInsts, baseCPI, baseGEMM = cycles, insts, cpi, gemm
			}
			fm.Rows = append(fm.Rows, Fig6Row{
				Config:        run.name,
				GEMMInstRatio: gemm / baseGEMM,
				TotalInsts:    insts / baseInsts,
				CPI:           cpi / baseCPI,
				Cycles:        cycles / baseCycles,
				Speedup:       baseCycles / cycles,
			})
		}
		res.Models = append(res.Models, fm)
		core := fm.Rows[2].Speedup
		socket := core * 2.5 * 1.1
		res.SocketFP32[m.name] = socket
	}
	aI8, aF32 := batch[len(batch)-2].Activity, batch[len(batch)-1].Activity
	// Ops per cycle: INT8 MACs vs FP32 MACs (flops/2).
	int8Ops := float64(aI8.IntMACs) / float64(aI8.Cycles)
	fp32Ops := float64(aF32.Flops) / 2 / float64(aF32.Cycles)
	res.INT8Advantage = int8Ops / fp32Ops
	// The kernel-level INT8 advantage only applies to the GEMM share of the
	// end-to-end run (Amdahl): the non-GEMM phases are precision-agnostic.
	for _, m := range models {
		g := m.gemm[1]
		core := 1 / ((1 - g) + g/res.INT8Advantage)
		res.SocketINT8[m.name] = res.SocketFP32[m.name] * core
	}
	return res, nil
}

// Table renders Fig. 6.
func (r *Fig6Result) Table() string {
	var out string
	for _, m := range r.Models {
		t := &table{header: []string{m.Model, "GEMM ratio", "total insts", "CPI", "cycles", "speedup"}}
		for _, row := range m.Rows {
			t.add(row.Config, f2(row.GEMMInstRatio), f2(row.TotalInsts), f2(row.CPI), f2(row.Cycles), f2(row.Speedup))
		}
		out += t.String() + "\n"
	}
	out += fmt.Sprintf("socket FP32 estimates: ResNet-50 %.1fx, BERT-Large %.1fx (paper: up to 10x)\n",
		r.SocketFP32["ResNet-50"], r.SocketFP32["BERT-Large"])
	out += fmt.Sprintf("socket INT8 estimates: ResNet-50 %.1fx, BERT-Large %.1fx (paper: up to 21x; int8/fp32 advantage %.2fx)\n",
		r.SocketINT8["ResNet-50"], r.SocketINT8["BERT-Large"], r.INT8Advantage)
	out += "paper core speedups: ResNet-50 2.25x (no MMA) / 3.55x (MMA); BERT-Large 2.08x / 3.64x\n"
	return out
}
