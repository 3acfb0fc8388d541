package workloads

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sharedCases lists every shared constructor beside the builder behind it.
var sharedCases = []struct {
	name          string
	shared, fresh func() *Workload
}{
	{"interp", Interp, interp},
	{"compile", Compile, compile},
	{"graphopt", GraphOpt, graphOpt},
	{"dsim", DSim, dsim},
	{"mediavec", MediaVec, mediaVec},
	{"boardeval", BoardEval, boardEval},
	{"pathfind", PathFind, pathFind},
	{"intcompute", IntCompute, intCompute},
	{"compress", Compress, compress},
	{"xmltrans", XMLTrans, xmlTrans},
	{"stressmark", func() *Workload { return Stressmark(false) }, func() *Workload { return stressmark(false) }},
	{"stressmark-mma", func() *Workload { return Stressmark(true) }, func() *Workload { return stressmark(true) }},
	{"active-idle", ActiveIdle, activeIdle},
}

// TestSharedConstructorsReturnOneInstance: every shared constructor, the
// suite and the catalog's shared entries hand out the same pointers on every
// call, from any goroutine (run under -race, this also checks the first
// builds).
func TestSharedConstructorsReturnOneInstance(t *testing.T) {
	type view struct {
		each    []*Workload
		suite   []*Workload
		catalog []*Workload // Catalog()'s entries for sharedCases' names
	}
	look := func() view {
		v := view{suite: SPECintSuite()}
		cat := Catalog()
		for _, c := range sharedCases {
			v.each = append(v.each, c.shared())
			v.catalog = append(v.catalog, cat[c.name])
		}
		return v
	}
	const goroutines = 8
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[g] = look()
		}()
	}
	wg.Wait()
	want := look()
	for i, c := range sharedCases {
		w := want.each[i]
		if w.Name != c.name {
			t.Errorf("%s: shared workload is named %q", c.name, w.Name)
		}
		if want.catalog[i] != w {
			t.Errorf("%s: Catalog() holds another instance", c.name)
		}
	}
	for g, v := range views {
		if !slices.Equal(v.each, want.each) || !slices.Equal(v.suite, want.suite) ||
			!slices.Equal(v.catalog, want.catalog) {
			t.Errorf("goroutine %d saw other instances than a later call", g)
		}
	}
	for i, w := range want.suite {
		if want.each[i] != w {
			t.Errorf("SPECintSuite()[%d] (%s) is not its constructor's instance", i, w.Name)
		}
	}
}

// TestSuiteAndCatalogAreFreshContainers: callers append to the suite and
// may edit the catalog map, so neither may share its container.
func TestSuiteAndCatalogAreFreshContainers(t *testing.T) {
	suite := SPECintSuite()
	if len(suite) != cap(suite) {
		t.Errorf("suite len %d, cap %d: an append would write past it", len(suite), cap(suite))
	}
	_ = append(suite[:5], ActiveIdle()) // writes over suite[5]
	suite[0] = nil
	again := SPECintSuite()
	if again[0] != Interp() || again[5] != BoardEval() || len(again) != 10 {
		t.Errorf("editing one suite changed the next: %v", again)
	}

	cat := Catalog()
	n := len(cat)
	delete(cat, "interp")
	cat["extra"] = ActiveIdle()
	next := Catalog()
	if len(next) != n || next["interp"] != Interp() || next["extra"] != nil {
		t.Errorf("editing one catalog changed the next (%d names, want %d)", len(next), n)
	}
}

// TestCatalogEntryBuildsCatalogEntries: each of the 26 catalog names is
// its workload's name, and CatalogEntry builds what Catalog holds under it,
// the shared instance for a shared workload and the same program for a
// kernel.
func TestCatalogEntryBuildsCatalogEntries(t *testing.T) {
	cat := Catalog()
	if len(cat) != 26 {
		t.Errorf("catalog has %d names, want 26", len(cat))
	}
	for name, w := range cat {
		build, ok := CatalogEntry(name)
		if !ok {
			t.Errorf("CatalogEntry(%q) not found", name)
			continue
		}
		got := build()
		if w.Name != name || got.Name != name || got.Prog.Fingerprint() != w.Prog.Fingerprint() {
			t.Errorf("%s: Catalog holds %q, CatalogEntry builds %q with another program", name, w.Name, got.Name)
		}
		if shared := w.Category == CatSPECint || w.Category == CatSynthetic; shared && got != w {
			t.Errorf("%s: CatalogEntry builds another instance of a shared workload", name)
		}
	}
	if _, ok := CatalogEntry("nope"); ok {
		t.Error("CatalogEntry found a name outside the catalog")
	}
}

// TestSharedWorkloadsMatchFreshBuilds: a shared workload is what its builder
// makes, field by field, with the same content key.
func TestSharedWorkloadsMatchFreshBuilds(t *testing.T) {
	for _, c := range sharedCases {
		got, want := c.shared(), c.fresh()
		if got == want || got.Prog == want.Prog {
			t.Fatalf("%s: the builder returned the shared instance", c.name)
		}
		if got.Name != want.Name || got.Category != want.Category || got.Weight != want.Weight ||
			got.Budget != want.Budget || got.Warmup != want.Warmup {
			t.Errorf("%s: fields %+v, fresh %+v", c.name, *got, *want)
		}
		gp, wp := got.Prog, want.Prog
		if gp.Name != wp.Name || gp.Entry != wp.Entry || gp.CodeBase != wp.CodeBase ||
			!reflect.DeepEqual(gp.Code, wp.Code) || !reflect.DeepEqual(gp.InitGPR, wp.InitGPR) ||
			!reflect.DeepEqual(gp.InitMem, wp.InitMem) {
			t.Errorf("%s: program differs from a fresh build", c.name)
		}
		if gp.Fingerprint() != wp.Fingerprint() {
			t.Errorf("%s: fingerprint %016x, fresh %016x", c.name, gp.Fingerprint(), wp.Fingerprint())
		}
	}
}
