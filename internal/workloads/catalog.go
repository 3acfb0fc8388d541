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
	m := make(map[string]*Workload, len(catalog))
	for name, build := range catalog {
		m[name] = build()
	}
	return m
}

// CatalogEntry returns the constructor of one catalog entry, which builds
// it exactly as Catalog does, without building anything; false for a name
// outside the catalog.
func CatalogEntry(name string) (func() *Workload, bool) {
	build, ok := catalog[name]
	return build, ok
}

// catalog maps every catalog name to its constructor.
var catalog = map[string]func() *Workload{
	"interp": Interp, "compile": Compile, "graphopt": GraphOpt, "dsim": DSim, "mediavec": MediaVec,
	"boardeval": BoardEval, "pathfind": PathFind, "intcompute": IntCompute, "compress": Compress, "xmltrans": XMLTrans,

	"dgemm-vsu":     func() *Workload { w, _, err := DGEMMVSU(catalogDGEMM); return must(w, err) },
	"dgemm-mma":     func() *Workload { w, _, err := DGEMMMMA(catalogDGEMM); return must(w, err) },
	"sgemm-vsu":     func() *Workload { w, _, err := SGEMMVSU(catalogSGEMM); return must(w, err) },
	"sgemm-mma":     func() *Workload { w, _, err := SGEMMMMA(catalogSGEMM); return must(w, err) },
	"gemm-int8-mma": func() *Workload { return must(GEMMInt8MMA(catalogSGEMM)) },
	"resnet50-vsu":  func() *Workload { return must(ResNet50(false)) },
	"resnet50-mma":  func() *Workload { return must(ResNet50(true)) },
	"bertlarge-vsu": func() *Workload { return must(BERTLarge(false)) },
	"bertlarge-mma": func() *Workload { return must(BERTLarge(true)) },
	"conv2d-mma": func() *Workload {
		w, _, err := Conv2DMMA(ConvShape{H: 6, W: 6, C: 4, K: 3, F: 16})
		return must(w, err)
	},
	"dft-mma":         func() *Workload { w, _, err := DFTMMA(16, 16); return must(w, err) },
	"trsv-unit-lower": func() *Workload { w, _, err := TRSVUnitLower(64); return must(w, err) },
	"daxpy":           func() *Workload { return Daxpy(4096, 12) },

	"stressmark":     func() *Workload { return Stressmark(false) },
	"stressmark-mma": func() *Workload { return Stressmark(true) },
	"active-idle":    ActiveIdle,
}

// The catalog's GEMM sizes: double precision, and single precision and
// int8.
var (
	catalogDGEMM = GEMMSize{M: 16, N: 64, K: 256}
	catalogSGEMM = GEMMSize{M: 32, N: 64, K: 64}
)

// must returns w, panicking on a build error (see Catalog).
func must(w *Workload, err error) *Workload {
	if err != nil {
		panic(err)
	}
	return w
}
