package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func TestSampleJoinsCacheKey(t *testing.T) {
	// A sampled run is a different estimator than the full simulation of the
	// same request: it must not collide in the memo map or on disk, and
	// distinct spec parameters must key distinctly too.
	full := testRequest(uarch.POWER10(), workloads.Compress(), 1)
	spec := sampling.DefaultSpec()
	sampled := full
	sampled.Sample = &spec

	variant := full
	vspec := sampling.DefaultSpec()
	vspec.RepsPerCluster++
	variant.Sample = &vspec

	kFull, _ := keyOf(full)
	kSamp, _ := keyOf(sampled)
	kVar, _ := keyOf(variant)
	if kFull == kSamp || kSamp == kVar {
		t.Error("sampling spec does not distinguish memo keys")
	}
	if diskKey(kFull) == diskKey(kSamp) || diskKey(kSamp) == diskKey(kVar) {
		t.Error("sampling spec does not distinguish disk keys")
	}

	// Equal spec values behind distinct pointers must share an entry, and a
	// partial spec must key like its normalized form so the cache does not
	// split one estimator across spellings.
	dup := full
	dspec := sampling.DefaultSpec()
	dup.Sample = &dspec
	if kDup, _ := keyOf(dup); kDup != kSamp {
		t.Error("identical sampling specs keyed differently")
	}
	partial := full
	pspec := sampling.Spec{}
	partial.Sample = &pspec
	norm := full
	nspec := pspec.Normalized()
	norm.Sample = &nspec
	kPartial, _ := keyOf(partial)
	kNorm, _ := keyOf(norm)
	if kPartial != kNorm {
		t.Error("partial spec keys differently from its normalized form")
	}

	// Upset requests run full regardless of Sample, so the spec must NOT
	// split them: an upset+sample request keys like the plain upset run.
	up := full
	up.Upset = &uarch.Upset{Cycle: 100, Target: uarch.UpsetEA, Bit: 3}
	upSampled := up
	upSampled.Sample = &spec
	kUp, _ := keyOf(up)
	kUpS, _ := keyOf(upSampled)
	if kUp != kUpS {
		t.Error("sampling spec split identical upset simulations")
	}
}

// sampledPair returns w's full request and its sampled twin with the
// default spec, w's budget split across smt threads as the experiment
// harness splits it.
func sampledPair(cfg *uarch.Config, w *workloads.Workload, smt int) (full, sampled Request) {
	full = Request{Cfg: cfg, W: w, SMT: smt, Budget: w.Budget / uint64(smt),
		Warmup: w.Warmup, MaxCycles: 80_000_000}
	spec := sampling.DefaultSpec()
	sampled = full
	sampled.Sample = &spec
	return full, sampled
}

// TestDiskCacheSamplingMetaSurvives: a sampled result's metadata survives
// the persistent cache, for an extrapolated estimate (dgemm-vsu, whose
// windows time about half of what they cover) and for a guarded run
// (interp, whose windows would time several times more).
func TestDiskCacheSamplingMetaSurvives(t *testing.T) {
	for _, tc := range []struct {
		w       *workloads.Workload
		guarded bool
	}{
		{workloads.Catalog()["dgemm-vsu"], false},
		{workloads.Interp(), true},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			dir := t.TempDir()
			_, req := sampledPair(uarch.POWER10(), tc.w, 1)

			cold := New(1)
			if err := cold.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			first := cold.Do(req)
			if first.Err != nil {
				t.Fatal(first.Err)
			}
			if m := first.Sampling; m == nil || m.Guarded != tc.guarded || (m.Windows == 0) != tc.guarded {
				t.Fatalf("sampling metadata %+v, want guarded %v with windows only when not", m, tc.guarded)
			}

			warm := New(1)
			if err := warm.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			second := warm.Do(req)
			if second.Err != nil {
				t.Fatal(second.Err)
			}
			if st := warm.Stats(); st.DiskHits != 1 {
				t.Fatalf("sampled request missed the disk cache: %+v", st)
			}
			if second.Sampling == nil {
				t.Fatal("sampling metadata lost in the disk round trip")
			}
			if !reflect.DeepEqual(first.Sampling, second.Sampling) {
				t.Errorf("sampling metadata changed across the round trip:\n%+v\n%+v",
					first.Sampling, second.Sampling)
			}
			if !reflect.DeepEqual(first.Activity, second.Activity) {
				t.Error("disk-loaded activity differs from executed activity")
			}
		})
	}
}

// TestDiskCacheOrphansUnguardedSamplerEntries: an entry the unguarded
// sampler stored, under the "|sample|" key, is never served. The guard runs
// this request in full now, so the stale estimate would stand in for the
// full run's result.
func TestDiskCacheOrphansUnguardedSamplerEntries(t *testing.T) {
	dir := t.TempDir()
	_, req := sampledPair(uarch.POWER10(), workloads.Interp(), 1)
	k, _ := keyOf(req)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%#v|%s|%d|%#x|%d|%d|%d|%d|%v|%#v|sample|%#v",
		keyGeneration, k.cfg, k.prog.name, k.prog.code, k.prog.hash,
		k.smt, k.budget, k.warmup, k.maxCycles, k.hasUpset, k.upset, k.sample)
	old := filepath.Join(dir, hex.EncodeToString(h.Sum(nil))+".json")

	r := New(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	stale := &uarch.Activity{Cycles: 1, Instructions: 1}
	r.writeEntry(old, resultKind, GroundTruth{Activity: stale, Sampling: &sampling.Meta{Windows: 44}})
	res := r.Do(req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := r.Stats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Errorf("disk hits %d, misses %d; want the old entry to read as a miss", st.DiskHits, st.DiskMisses)
	}
	if reflect.DeepEqual(res.Activity, stale) {
		t.Error("served the unguarded sampler's stale estimate")
	}
}

// TestUnguardedRequestMatchesRun: a sampled request whose plan is not
// guarded returns exactly sampling.Run's estimate, so routing the runner
// through Prepare and Estimate moved no estimate.
func TestUnguardedRequestMatchesRun(t *testing.T) {
	w := workloads.Catalog()["dgemm-vsu"]
	_, req := sampledPair(uarch.POWER10(), w, 1)
	est, err := sampling.Run(req.Cfg, w.Prog, req.Budget, req.Warmup, 1, req.MaxCycles, *req.Sample)
	if err != nil {
		t.Fatal(err)
	}
	got := New(1).Do(req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Sampling == nil || got.Sampling.Guarded {
		t.Fatalf("sampling metadata %+v, want an unguarded estimate", got.Sampling)
	}
	if !reflect.DeepEqual(*got.Activity, est.Activity) || !reflect.DeepEqual(*got.Sampling, est.Meta) {
		t.Errorf("runner estimate differs from sampling.Run:\n got %+v\nwant %+v", *got.Sampling, est.Meta)
	}
}

// TestSampledLongRequests is the sampler's gate over every request a
// benchmark long set can draw (bench/workloads.go): the daxpy-200 anchor on
// POWER10 at SMT1, and seven SPECint programs on POWER9 and POWER10 at SMT1,
// 2 and 4, each workload's budget split across threads. A guarded result
// must equal its full run's Activity and Report bit for bit, with Meta
// saying so: no windows, every instruction of every thread timed, and no
// confidence interval. An estimate must stay inside the published CPI and
// power bounds. The anchor, whose windows time about a fifth of what they
// cover, must still be estimated.
func TestSampledLongRequests(t *testing.T) {
	type point struct {
		name          string
		full, sampled Request
	}
	full, sampled := sampledPair(uarch.POWER10(), workloads.Daxpy(4096, 200), 1)
	const anchor = "daxpy-200@POWER10/smt1"
	points := []point{{anchor, full, sampled}}
	for _, w := range workloads.SPECintSuite() {
		switch w.Name {
		case "boardeval", "compress", "interp", "intcompute", "mediavec", "pathfind", "xmltrans":
		default:
			continue
		}
		for _, cfg := range []*uarch.Config{uarch.POWER9(), uarch.POWER10()} {
			for _, smt := range []int{1, 2, 4} {
				full, sampled := sampledPair(cfg, w, smt)
				points = append(points, point{full.Label(), full, sampled})
			}
		}
	}
	if len(points) != 43 {
		t.Fatalf("%d requests, want 43", len(points))
	}
	reqs := make([]Request, 0, 2*len(points))
	for _, p := range points {
		reqs = append(reqs, p.full, p.sampled)
	}
	results := New(0).RunAll(reqs)
	guarded := 0
	for i, p := range points {
		full, samp := results[2*i], results[2*i+1]
		if full.Err != nil || samp.Err != nil {
			t.Errorf("%s: full %v, sampled %v", p.name, full.Err, samp.Err)
			continue
		}
		if samp.Sampling.Guarded {
			if p.name == anchor {
				t.Errorf("%s: guarded, want it estimated", anchor)
			}
			guarded++
			if !reflect.DeepEqual(samp.Activity, full.Activity) || !reflect.DeepEqual(samp.Report, full.Report) {
				t.Errorf("%s: guarded result differs from the full run", p.name)
			}
			if m, smt := samp.Sampling, uint64(p.full.SMT); m.Windows != 0 || m.SimulatedInsts != m.TotalInsts ||
				m.TotalInsts != p.full.Budget*smt || m.CPIHalfWidth != 0 || m.PowerHalfWidth != 0 {
				t.Errorf("%s: guarded meta %+v", p.name, m)
			}
			continue
		}
		cpiErr, powErr, ok := sampling.Compare(samp.Activity.CPI(), full.Activity.CPI(), samp.Report.Total, full.Report.Total)
		if !ok {
			t.Errorf("%s: estimate off by %.2f%% CPI, %.2f%% power (bounds %.0f%%, %.0f%%)",
				p.name, 100*cpiErr, 100*powErr, 100*sampling.CPIErrBound, 100*sampling.PowerErrBound)
		}
	}
	t.Logf("%d of %d requests guarded", guarded, len(points))
}
