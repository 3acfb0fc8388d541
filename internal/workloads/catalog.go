package workloads

// Catalog returns every named workload the CLI surfaces expose, keyed by
// name: the SPECint-style suite, the stressmarks and active-idle, plus the
// GEMM/AI kernels at their standard demo sizes. It is shared by p10sim
// (-workload lookup, -list), p10explore (-workload) and the surrogate's
// default catalog profiler, so a workload name means the same simulation
// everywhere — including its content key.
//
// Each call returns a fresh map. Its suite, stressmark and active-idle
// entries are the constructors' shared, read-only instances (see the package
// doc); its kernels are built afresh on every call, and the caller owns them.
//
// Construction is deterministic, so a build error here is a programming
// error, not an input error; Catalog panics like the workload constructors'
// tests would.
func Catalog() map[string]*Workload {
	m := map[string]*Workload{}
	add := func(w *Workload, err error) {
		if err != nil {
			panic(err)
		}
		m[w.Name] = w
	}
	for _, w := range SPECintSuite() {
		m[w.Name] = w
	}
	gd := GEMMSize{M: 16, N: 64, K: 256}
	wv, _, err := DGEMMVSU(gd)
	add(wv, err)
	wm, _, err := DGEMMMMA(gd)
	add(wm, err)
	gs := GEMMSize{M: 32, N: 64, K: 64}
	sv, _, err := SGEMMVSU(gs)
	add(sv, err)
	sm, _, err := SGEMMMMA(gs)
	add(sm, err)
	i8, err := GEMMInt8MMA(gs)
	add(i8, err)
	add(ResNet50(false))
	add(ResNet50(true))
	add(BERTLarge(false))
	add(BERTLarge(true))
	cw, _, err := Conv2DMMA(ConvShape{H: 6, W: 6, C: 4, K: 3, F: 16})
	add(cw, err)
	dw, _, err := DFTMMA(16, 16)
	add(dw, err)
	tw, _, err := TRSVUnitLower(64)
	add(tw, err)
	m["daxpy"] = Daxpy(4096, 12)
	m["stressmark"] = Stressmark(false)
	m["stressmark-mma"] = Stressmark(true)
	m["active-idle"] = ActiveIdle()
	return m
}
