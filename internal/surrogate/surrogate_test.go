package surrogate

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"power10sim/internal/clitest"
	"power10sim/internal/mlfit"
	"power10sim/internal/runlog"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// validRecord builds a well-formed executed ledger record.
func validRecord(seq uint64, key, config, workload string, smt int, cpi, pw float64) runlog.Record {
	cycles := uint64(cpi * 50000)
	return runlog.Record{
		Schema:          runlog.Schema,
		Seq:             seq,
		Key:             key,
		Config:          config,
		Workload:        workload,
		SMT:             smt,
		Budget:          50000,
		Warmup:          2000,
		Tier:            runlog.TierRun,
		Cycles:          cycles,
		Instructions:    50000,
		CPI:             cpi,
		PowerTotal:      pw,
		EnergyTotal:     pw * float64(cycles),
		EnergyClock:     0.4 * pw * float64(cycles),
		EnergySwitching: 0.3 * pw * float64(cycles),
		EnergyArray:     0.2 * pw * float64(cycles),
		EnergyLeakage:   0.1 * pw * float64(cycles),
	}
}

// TestLedgerToCorpusRoundTrip writes a ledger containing every pollution mode
// the loader must survive — corrupt JSON, a foreign schema, a torn tail,
// failed/upset/predicted records, duplicates, unresolvable names, degenerate
// metrics — and checks that only the ground-truth rows train, with every skip
// accounted for.
func TestLedgerToCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	line := func(rec runlog.Record) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}

	good1 := validRecord(1, "key-good-1", "POWER10", "daxpy", 1, 0.9, 7.5)
	good2 := validRecord(2, "key-good-2", "POWER9", "daxpy", 2, 1.4, 5.0)
	line(good1)
	line(good2)

	failed := validRecord(3, "key-failed", "POWER10", "daxpy", 1, 0.9, 7.5)
	failed.Err = "boom"
	line(failed)

	upset := validRecord(4, "key-upset", "POWER10", "daxpy", 1, 0.95, 7.6)
	upset.Upset = true
	line(upset)

	// Earlier builds served predictions from the runner and ledgered them as
	// tier "surrogate" with the predicted mark, and their memo restatements
	// with the mark alone. A surrogate-tier record without the mark is
	// malformed (p10obscheck rejects it), but it must not train either. Each
	// record below is caught by one half of the loader's test only.
	predicted := validRecord(5, "key-predicted", "POWER10", "daxpy", 4, 0.8, 8.0)
	predicted.Tier = runlog.TierSurrogate
	predicted.Predicted = true
	predicted.CPIRelStd = 0.02
	line(predicted)
	predictedMemo := validRecord(12, "key-predicted-memo", "POWER10", "daxpy", 8, 0.7, 8.5)
	predictedMemo.Tier = runlog.TierMemo
	predictedMemo.Predicted = true
	line(predictedMemo)
	unmarkedSurrogate := validRecord(13, "key-unmarked-surrogate", "POWER9", "daxpy", 4, 1.2, 5.5)
	unmarkedSurrogate.Tier = runlog.TierSurrogate
	line(unmarkedSurrogate)

	// Cache-tier restatement of good1: same content key, different tier.
	dup := good1
	dup.Seq = 6
	dup.Tier = runlog.TierMemo
	line(dup)

	unknownCfg := validRecord(7, "key-unknown-cfg", "no-such-config", "daxpy", 1, 1.0, 6.0)
	line(unknownCfg)

	unknownWl := validRecord(8, "key-unknown-wl", "POWER10", "no-such-workload", 1, 1.0, 6.0)
	line(unknownWl)

	degenerate := validRecord(9, "key-degenerate", "POWER10", "daxpy", 1, 1.0, 6.0)
	degenerate.Cycles = 0
	line(degenerate)

	// Design-space point: the name resolves to nothing, but the record
	// carries its full spec inline (as the runner writes for explorer
	// ground-truth runs), so it must train.
	dseCfg := uarch.POWER10()
	dseCfg.Name = "dse7-00042"
	dse := validRecord(11, "key-dse", "dse7-00042", "daxpy", 1, 1.1, 6.5)
	dse.Spec = dseCfg
	line(dse)

	// Corrupt line: terminated but unparseable.
	sb.WriteString("{this is not json\n")

	// Foreign schema: parseable, rejected.
	foreign := validRecord(10, "key-foreign", "POWER10", "daxpy", 1, 1.0, 6.0)
	foreign.Schema = "someone-elses-v9"
	line(foreign)

	// Torn tail: a half-written record with no newline. Unparseable, so it
	// must vanish into the scan stats without poisoning anything.
	sb.WriteString(`{"schema":"` + runlog.Schema + `","key":"key-torn","cpi":`)

	path := filepath.Join(dir, runlog.LedgerFile)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := LoadCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Used != 3 || len(c.Rows) != 3 {
		t.Fatalf("Used=%d rows=%d, want 3 ground-truth rows", c.Stats.Used, len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.Key != "key-good-1" && r.Key != "key-good-2" && r.Key != "key-dse" {
			t.Errorf("poisoned row trained: key %q", r.Key)
		}
	}
	st := c.Stats
	if st.SkippedFailed != 1 || st.SkippedUpset != 1 || st.SkippedPredicted != 3 ||
		st.SkippedDuplicate != 1 || st.SkippedUnknownConfig != 1 ||
		st.SkippedUnknownWorkload != 1 || st.SkippedDegenerate != 1 {
		t.Errorf("skip counters = %+v, want three predicted and one of each other reason", st)
	}
	if st.Scanned != st.Used+st.SkippedFailed+st.SkippedUpset+st.SkippedPredicted+
		st.SkippedDuplicate+st.SkippedUnknownConfig+st.SkippedUnknownWorkload+st.SkippedDegenerate {
		t.Errorf("scanned %d does not equal used+skips: %+v", st.Scanned, st)
	}
	if st.Scan.Corrupt != 1 {
		t.Errorf("scan corrupt = %d, want 1", st.Scan.Corrupt)
	}
	if st.Scan.WrongSchema != 1 {
		t.Errorf("scan wrong-schema = %d, want 1", st.Scan.WrongSchema)
	}
	if !st.Scan.UnterminatedTail {
		t.Error("scan did not report the torn tail")
	}
	if !reflect.DeepEqual(c.Vocab, []string{"daxpy"}) {
		t.Errorf("vocab = %v, want [daxpy]", c.Vocab)
	}
	// Component powers derive from the energy integrals.
	r0 := c.Rows[0]
	if math.Abs(r0.PowerClock-0.4*r0.Power) > 1e-9 {
		t.Errorf("PowerClock = %v, want 0.4*%v", r0.PowerClock, r0.Power)
	}
}

// TestCorpusOrderIndependent: a ledger lists parallel runs in the order
// they completed, so the same records scanned in another order must give
// the same rows and the same trained model, byte for byte.
func TestCorpusOrderIndependent(t *testing.T) {
	syn := SyntheticCorpus(120, 5)
	recs := make([]runlog.Record, len(syn.Rows))
	for i, r := range syn.Rows {
		recs[i] = validRecord(uint64(i+1), r.Key, r.Config, r.Workload, r.SMT, r.CPI, r.Power)
		recs[i].Spec = r.Cfg
	}
	reversed := make([]runlog.Record, len(recs))
	for i := range recs {
		reversed[len(recs)-1-i] = recs[i]
	}
	profiles := synthProfiles()
	opts := CorpusOptions{Profiles: func(name string) ([]float64, bool) {
		p, ok := profiles[name]
		return p, ok
	}}
	model := func(c *Corpus) []byte {
		m, err := Train(c, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.json")
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := CorpusFromRecords(recs, runlog.ScanStats{}, opts)
	b := CorpusFromRecords(reversed, runlog.ScanStats{}, opts)
	if len(a.Rows) != len(recs) {
		t.Fatalf("%d rows from %d records", len(a.Rows), len(recs))
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("corpus rows depend on record order")
	}
	if !bytes.Equal(model(a), model(b)) {
		t.Error("saved model bytes depend on record order")
	}
}

// TestTrainSaveLoadBitIdentical persists a trained model and checks the
// reloaded copy predicts bit-identically: JSON round-trips float64 exactly, so
// a campaign that reloads its model continues byte-stable.
func TestTrainSaveLoadBitIdentical(t *testing.T) {
	c := SyntheticCorpus(160, 11)
	m, err := Train(c, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	pts := Space(64, 99)
	var b1, b2 PredictBuf
	for i, pt := range pts {
		w := c.Vocab[i%len(c.Vocab)]
		profile := c.Rows[indexOfWorkload(c, w)].Profile
		p1 := m.Predict(&b1, pt.Cfg, w, profile, pt.SMT, 50000, 2000)
		p2 := m2.Predict(&b2, pt.Cfg, w, profile, pt.SMT, 50000, 2000)
		if p1 != p2 {
			t.Fatalf("point %d: reloaded model diverged:\n  trained: %+v\n  loaded:  %+v", i, p1, p2)
		}
	}
}

// TestTrainGolden pins what training selects on a fixed corpus: per target,
// the global model's features, ridge strength and LOO RMSE (printed exactly)
// and how many workloads earned a residual ridge model, plus the SHA-256 of
// the saved model. A solver change that moves any digit of any model shows
// up here. Regenerate with -update only for an intended change.
func TestTrainGolden(t *testing.T) {
	m, err := Train(SyntheticCorpus(120, 1), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tm := range m.Targets {
		models := 0
		for _, wm := range tm.PerWorkload {
			if wm.Model != nil {
				models++
			}
		}
		fmt.Fprintf(&sb, "%s\n  features: %s\n  lambda: %.17g\n  loo_rmse: %.17g\n  workload_models: %d of %d\n",
			tm.Name, strings.Join(tm.Model.Names, " "), tm.Model.Lambda, tm.Model.LOORMSE, models, len(tm.PerWorkload))
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "model_sha256: %x\n", sha256.Sum256(b))
	clitest.Golden(t, "train", sb.String())
}

// TestSaveReplacesExistingModel saves over an existing model: the second
// model replaces the first whole, as a 0644 artifact, and no temp file is
// left in the directory.
func TestSaveReplacesExistingModel(t *testing.T) {
	m, err := Train(SyntheticCorpus(160, 11), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m.TrainRows++
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrainRows != m.TrainRows {
		t.Errorf("TrainRows = %d, want the second save's %d", got.TrainRows, m.TrainRows)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		t.Errorf("directory holds %v, want only model.json", entries)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("model mode = %v, want 0644", st.Mode().Perm())
	}
}

func indexOfWorkload(c *Corpus, w string) int {
	for i := range c.Rows {
		if c.Rows[i].Workload == w {
			return i
		}
	}
	return 0
}

// tinyModel is the smallest model Load accepts for a one-workload
// vocabulary: intercept-only global fits, one intercept-shift correction,
// and the workload's training envelope.
func tinyModel() *Model {
	m := &Model{Schema: ModelSchema, Workloads: []string{"w"}, TrainRows: 3}
	fz := m.Featurizer()
	m.Features = fz.NumFeatures()
	for _, name := range TargetNames {
		m.Targets = append(m.Targets, TargetModel{
			Name:        name,
			Model:       &mlfit.RidgeModel{R: [][]float64{{1}}, Sigma2: 0.01, N: 3},
			PerWorkload: map[string]*WorkloadModel{"w": {Rows: 3, Shift: 0.1, LOORMSE: 0.02}},
		})
	}
	lo := make([]float64, fz.SubWidth())
	hi := make([]float64, fz.SubWidth())
	for j := range hi {
		hi[j] = 1
	}
	m.WlBoxes = map[string]*WlBox{"w": {Lo: lo, Hi: hi}}
	return m
}

// TestLoadRejectsBadModels checks the loader's validation: foreign schemas
// and structurally broken models are refused, not misread, and the minimal
// valid model loads.
func TestLoadRejectsBadModels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	load := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		return err
	}
	marshal := func(m *Model) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := load(marshal(tinyModel())); err != nil {
		t.Fatalf("tiny model: %v", err)
	}
	// A workload without corrections still has its sub-row measured against
	// its box, so a box whose Hi is shorter than its Lo must fail to load
	// instead of panicking in Predict.
	short := tinyModel()
	for i := range short.Targets {
		short.Targets[i].PerWorkload = nil
	}
	short.WlBoxes["w"].Hi = short.WlBoxes["w"].Hi[:1]
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"foreign-schema", []byte(`{"schema":"other-v1"}`)},
		{"unparseable", []byte(`{not json`)},
		{"short-envelope", marshal(short)},
	} {
		if err := load(c.data); err == nil {
			t.Errorf("Load accepted the %s model", c.name)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the decoder behind Load. A model either
// fails to load or predicts, without panicking, for every workload in its
// vocabulary. The committed corpus under testdata/fuzz/FuzzLoad holds
// tinyModel and the short-envelope model TestLoadRejectsBadModels builds.
func FuzzLoad(f *testing.F) {
	cfg := uarch.POWER10()
	profile := make([]float64, sampling.ProfileLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeModel("fuzz.json", data)
		if err != nil {
			return
		}
		var buf PredictBuf
		for _, w := range m.Workloads {
			m.Predict(&buf, cfg, w, profile, 2, 50000, 2000)
		}
	})
}

// TestValidateHeldOutAccuracy trains on a split of the synthetic corpus and
// checks held-out CPI and power errors clear the 5% gate the explore-check
// script enforces, and that the split is deterministic.
func TestValidateHeldOutAccuracy(t *testing.T) {
	c := SyntheticCorpus(400, 5)
	v, err := Validate(c, 0.25, 1, 0, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.TestRows == 0 || v.TrainRows == 0 {
		t.Fatalf("degenerate split: train=%d test=%d", v.TrainRows, v.TestRows)
	}
	for _, name := range []string{"cpi", "power"} {
		te := v.TargetError(name)
		if te == nil {
			t.Fatalf("no %s target error", name)
		}
		if te.MAPE > 5 {
			t.Errorf("held-out %s MAPE = %.2f%%, want <= 5%%", name, te.MAPE)
		}
	}
	v2, err := Validate(c, 0.25, 1, 0, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Targets, v2.Targets) {
		t.Error("Validate is not deterministic for a fixed (corpus, seed)")
	}
}

// daxpyCorpus builds a training corpus over generated design points with the
// real daxpy profile and smooth analytic targets — a model whose vocabulary
// contains a catalog workload, for exercising the explorer.
func daxpyCorpus(t *testing.T, n int) (*Corpus, *workloads.Workload) {
	t.Helper()
	w := workloads.Catalog()["daxpy"]
	if w == nil {
		t.Fatal("catalog has no daxpy")
	}
	profile, err := sampling.Profile(w.Prog, ProfileBudget)
	if err != nil {
		t.Fatal(err)
	}
	c := &Corpus{Vocab: []string{"daxpy"}}
	for i, pt := range Space(n, 21) {
		cpi := 0.5 + 0.8*float64(pt.Cfg.MemLatency)/300 + 0.2*float64(pt.SMT)/8
		pw := 4 + 0.5*float64(pt.Cfg.DecodeWidth) + 0.3*float64(pt.Cfg.VSXPipes)
		c.Rows = append(c.Rows, Row{
			Key:            fmt.Sprintf("daxpy-%04d", i),
			Config:         pt.Cfg.Name,
			Workload:       "daxpy",
			SMT:            pt.SMT,
			Budget:         5000,
			Warmup:         500,
			Cfg:            pt.Cfg,
			Profile:        profile,
			CPI:            cpi,
			Power:          pw,
			PowerClock:     0.4 * pw,
			PowerSwitching: 0.3 * pw,
			PowerArray:     0.2 * pw,
			PowerLeakage:   0.1 * pw,
		})
	}
	return c, w
}

// TestSpaceDeterminism checks the design space is a pure function of
// (n, seed) and that point i does not depend on n.
func TestSpaceDeterminism(t *testing.T) {
	a := Space(50, 9)
	b := Space(50, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Space(50,9) differs between calls")
	}
	prefix := Space(10, 9)
	for i := range prefix {
		if !reflect.DeepEqual(prefix[i], a[i]) {
			t.Fatalf("point %d depends on the space size", i)
		}
	}
	other := Space(50, 10)
	same := true
	for i := range a {
		if a[i].Cfg.MemLatency != other[i].Cfg.MemLatency || a[i].SMT != other[i].SMT {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds generated an identical space")
	}
	for i, pt := range a {
		want := fmt.Sprintf("dse9-%05d", i)
		if pt.Cfg.Name != want {
			t.Errorf("point %d named %q, want %q", i, pt.Cfg.Name, want)
		}
		if !pt.Cfg.HasMMA && (pt.Cfg.MMAThroughput != 0 || pt.Cfg.MMAAccumForwarding) {
			t.Errorf("point %d: MMA-less config keeps MMA parameters", i)
		}
		// Explorer fallback simulations may run on a fleet, whose decoder
		// refuses configs the core cannot build.
		if err := pt.Cfg.Validate(); err != nil {
			t.Errorf("point %d: %v", i, err)
		}
	}
}

// TestExploreSynthetic runs the pure-prediction explorer over the synthetic
// corpus and checks ranking order, determinism, and confidence intervals.
func TestExploreSynthetic(t *testing.T) {
	c, w := daxpyCorpus(t, 150)
	m, err := Train(c, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ExploreOptions{Points: 200, Seed: 4, Workload: w, Budget: 5000, Warmup: 500, TopK: 25}
	res, err := Explore(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 200 || len(res.Ranked) != 25 {
		t.Fatalf("total=%d ranked=%d, want 200/25", res.Total, len(res.Ranked))
	}
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].EPI < res.Ranked[i-1].EPI {
			t.Fatalf("ranking not ascending at %d: %v < %v", i, res.Ranked[i].EPI, res.Ranked[i-1].EPI)
		}
	}
	for _, p := range res.Ranked {
		if !(p.EPILo <= p.EPI && p.EPI <= p.EPIHi) {
			t.Errorf("point %s: EPI %v outside its CI [%v,%v]", p.Name, p.EPI, p.EPILo, p.EPIHi)
		}
	}
	res2, err := Explore(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Ranked, res2.Ranked) {
		t.Error("Explore is not deterministic for fixed inputs")
	}
}
