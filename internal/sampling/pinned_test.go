package sampling

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestRunPinnedEstimates pins Run's complete output — every extrapolated
// activity counter and the full sampling metadata — on a streaming kernel at
// SMT1/2/4 and a SPECint-style program on POWER9 (SMT2) and POWER10 (SMT1).
// Every case runs at GOMAXPROCS 1 and 4. The estimator's cost structure (how
// the trace is executed, recorded and replayed for capture and functional
// warming, and how many windows run at once) may change freely; its output
// may not. Any drift here means a refactor changed a simulated statistic.
func TestRunPinnedEstimates(t *testing.T) {
	daxpy := workloads.Daxpy(4096, 12)
	interp := workloads.Interp()
	cases := []struct {
		name string
		cfg  *uarch.Config
		w    *workloads.Workload
		smt  int
		// meta is Estimate.Meta as JSON after the spec; activity is the
		// first 16 hex digits of the SHA-256 of Estimate.Activity as JSON.
		meta, activity string
	}{
		{"daxpy/P10/smt1", uarch.POWER10(), daxpy, 1,
			`"intervals":74,"k":7,"windows":15,"smt":1,"total_insts":147533,"roi_insts":73767,"simulated_insts":180000,"cpi":0.16673803268729337,"cpi_half_width":0.0010198938800922886,"avg_power":1.3547166013454983,"power_half_width":0.006540451568021382`,
			"80cdc38bdc405bb6"},
		{"daxpy/P10/smt2", uarch.POWER10(), daxpy, 2,
			`"intervals":74,"k":7,"windows":15,"smt":2,"total_insts":295066,"roi_insts":221300,"simulated_insts":360000,"cpi":0.1671043333735273,"cpi_half_width":0.00048823643312311183,"avg_power":1.3370753531245332,"power_half_width":0.0039939997455790705`,
			"c7dba4c26f22d1dc"},
		{"daxpy/P10/smt4", uarch.POWER10(), daxpy, 4,
			`"intervals":74,"k":7,"windows":15,"smt":4,"total_insts":590132,"roi_insts":516368,"simulated_insts":720000,"cpi":0.16692408269783177,"cpi_half_width":0.0003180222274925429,"avg_power":1.3334054702405733,"power_half_width":0.0029300317850163263`,
			"be04804165aab75f"},
		{"interp/P9/smt2", uarch.POWER9(), interp, 2,
			`"intervals":45,"k":6,"windows":38,"smt":2,"total_insts":180000,"roi_insts":155000,"simulated_insts":876000,"cpi":0.891040262720344,"cpi_half_width":0.012573750188613154,"avg_power":0.987528329243707,"power_half_width":0.0035858033832663395`,
			"1583548cc6aba4f0"},
		// 26 of this case's 44 windows are adaptive, and over half of those
		// start before a window already simulated: the only case here that
		// takes SMT1 windows out of start order.
		{"interp/P10/smt1", uarch.POWER10(), interp, 1,
			`"intervals":45,"k":6,"windows":44,"smt":1,"total_insts":90000,"roi_insts":65000,"simulated_insts":506000,"cpi":1.0920652541591824,"cpi_half_width":0.015993611992532374,"avg_power":0.4445951934189891,"power_half_width":0.0018698506093930642`,
			"9a0b9165252da82f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One core and more cores than windows in flight: the estimate
			// must not depend on how many windows run at once.
			for _, procs := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					est, err := Run(tc.cfg, tc.w.Prog, tc.w.Budget, tc.w.Warmup, tc.smt, 40_000_000, DefaultSpec())
					if err != nil {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
					meta, err := json.Marshal(est.Meta)
					if err != nil {
						t.Fatal(err)
					}
					act, err := json.Marshal(est.Activity)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(act)
					activity := hex.EncodeToString(sum[:8])
					if want := `{"spec":{"IntervalInsts":2000,"MaxK":8,"RepsPerCluster":3,"WarmupIntervals":4,"SignatureDims":32,"Seed":1},` + tc.meta + "}"; string(meta) != want {
						t.Errorf("GOMAXPROCS %d: Meta drifted:\n got %s\nwant %s", procs, meta, want)
					}
					if activity != tc.activity {
						t.Errorf("GOMAXPROCS %d: Activity digest %s, want %s (cycles %d, CPI %.6f)",
							procs, activity, tc.activity, est.Activity.Cycles, est.Activity.CPI())
					}
				}()
			}
		})
	}
}
