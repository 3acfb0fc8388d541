package sampling

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestRunPinnedEstimates pins Run's complete output — every extrapolated
// activity counter and the full sampling metadata — on a streaming kernel at
// SMT1/2/4 and a SPECint-style program on POWER9. The estimator's cost
// structure (how the trace is executed, recorded and replayed for capture and
// functional warming) may change freely; its output may not. Any drift here
// means a refactor changed a simulated statistic.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est, err := Run(tc.cfg, tc.w.Prog, tc.w.Budget, tc.w.Warmup, tc.smt, 40_000_000, DefaultSpec())
			if err != nil {
				t.Fatal(err)
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
				t.Errorf("Meta drifted:\n got %s\nwant %s", meta, want)
			}
			if activity != tc.activity {
				t.Errorf("Activity digest %s, want %s (cycles %d, CPI %.6f)",
					activity, tc.activity, est.Activity.Cycles, est.Activity.CPI())
			}
		})
	}
}
