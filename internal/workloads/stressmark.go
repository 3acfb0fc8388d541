package workloads

import (
	"sync"

	"power10sim/internal/isa"
)

// Stressmark returns a maximum-power virus: every unit class busy every
// cycle — wide independent integer work, many independent VSX FMA streams,
// MMA outer products, and load/store traffic (the "maximum power
// stressmarks" the paper's power modeling flow tracks).
func Stressmark(withMMA bool) *Workload {
	if withMMA {
		return sharedStressmarkMMA()
	}
	return sharedStressmark()
}

var (
	sharedStressmark    = sync.OnceValue(func() *Workload { return stressmark(false) })
	sharedStressmarkMMA = sync.OnceValue(func() *Workload { return stressmark(true) })
	sharedActiveIdle    = sync.OnceValue(activeIdle)
)

func stressmark(withMMA bool) *Workload {
	b := isa.NewBuilder("stressmark")
	if withMMA {
		b.MMAWake()
	}
	rP := isa.GPR(1)
	rQ := isa.GPR(2)
	rI := isa.GPR(3)
	rL := isa.GPR(4)
	b.Li(rP, addrX)
	b.Li(rQ, addrY)
	b.Li(rI, 0)
	b.Li(rL, 3000)
	b.Label("top")
	for u := 0; u < 2; u++ { // unroll to dilute loop control
		// Independent integer pressure.
		for k := 0; k < 4; k++ {
			b.Addi(isa.GPR(10+k), isa.GPR(10+k), int64(k+1))
		}
		// Eight independent FMA accumulator streams (dependence distance
		// is a full unrolled iteration, hiding the FMA latency).
		for k := 0; k < 4; k++ {
			acc := isa.VSR(16 + 4*u + k)
			b.Xvmaddadp(acc, isa.VSR(k), isa.VSR(8+k))
		}
		if withMMA {
			b.Xvf64gerpp(isa.ACC(2*u), isa.VSR(0), isa.VSR(4))
			b.Xvf64gerpp(isa.ACC(2*u+1), isa.VSR(2), isa.VSR(5))
		}
		// L1-resident loads and stores.
		b.Lxv(isa.VSR(30), rP, int64(32*u))
		b.Lxv(isa.VSR(31), rP, int64(32*u+16))
		b.Stxv(isa.VSR(16+4*u), rQ, int64(32*u))
	}
	b.And(rP, rP, isa.GPR(8)) // r8 masks to a 4 KiB window
	b.Addi(rP, rP, 64)
	b.Addi(rI, rI, 1)
	b.Bc(isa.CondLT, rI, rL, "top")
	b.Halt()
	b.SetGPR(8, addrX|0xFFF)
	name := "stressmark"
	if withMMA {
		name = "stressmark-mma"
	}
	return &Workload{Name: name, Category: CatSynthetic, Prog: b.MustBuild(),
		Weight: 1, Budget: 110_000, Warmup: 20_000}
}

// ActiveIdle returns a minimal-activity spin: a serial long-latency
// dependency chain keeps retirement alive at a trickle while nearly every
// unit sits clock-gate-eligible — the "active-idle" power point the power
// model separates from workload-dependent power.
func ActiveIdle() *Workload { return sharedActiveIdle() }

func activeIdle() *Workload {
	b := isa.NewBuilder("active-idle")
	rI := isa.GPR(1)
	rL := isa.GPR(2)
	rV := isa.GPR(3)
	rD := isa.GPR(4)
	b.Li(rI, 0)
	b.Li(rL, 3000)
	b.Li(rV, 1_000_000_007)
	b.Li(rD, 3)
	b.Label("top")
	b.Div(rV, rV, rD) // serial long-latency op
	b.Div(rV, rV, rD)
	b.Addi(rV, rV, 1_000_000_007)
	b.Addi(rI, rI, 1)
	b.Bc(isa.CondLT, rI, rL, "top")
	b.Halt()
	return &Workload{Name: "active-idle", Category: CatSynthetic, Prog: b.MustBuild(),
		Weight: 1, Budget: 15_000}
}
