package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/workloads"
)

// TestMain fails the package if any test changed a shared workload. The
// named workloads are one value per process (see the workloads package
// doc), so every experiment test here doubles as a check that no experiment
// writes to them; TestOtherStudiesRun runs the studies no other test does.
func TestMain(m *testing.M) {
	shared := sharedWorkloads()
	before := make([]workloadState, len(shared))
	for i, w := range shared {
		before[i] = stateOf(w)
	}
	code := m.Run()
	for i, w := range shared {
		if after := stateOf(w); !reflect.DeepEqual(after, before[i]) || after.prog != before[i].prog {
			fmt.Fprintf(os.Stderr, "FAIL: shared workload %q was modified during the tests\n", before[i].Name)
			code = 1
		}
	}
	os.Exit(code)
}

// TestOtherStudiesRun runs, once each in quick mode on one shared runner, the
// studies no other test in this package runs, so that TestMain's check sees
// every experiment's path, and requires each to render a table. The
// sampled-vs-full validation runs its one shared integer family only.
func TestOtherStudiesRun(t *testing.T) {
	o := Options{Quick: true, Runner: runner.New(0)}
	studies := []struct {
		name string
		run  func(Options) (tabler, error)
	}{
		{"TableI", func(o Options) (tabler, error) { return TableI(o) }},
		{"Headline", func(o Options) (tabler, error) { return Headline(o) }},
		{"Fig4", func(o Options) (tabler, error) { return Fig4(o) }},
		{"Fig10", func(o Options) (tabler, error) { return Fig10(o) }},
		{"WOF", func(o Options) (tabler, error) { return WOF(o) }},
		{"SampleValidate", func(o Options) (tabler, error) {
			return SampleValidate(o, sampling.DefaultSpec(), []string{"intcompute"})
		}},
	}
	for _, s := range studies {
		r, err := s.run(o)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if r.Table() == "" {
			t.Errorf("%s rendered an empty table", s.name)
		}
	}
}

// sharedWorkloads returns every shared workload: the suite, the
// stressmarks and active-idle.
func sharedWorkloads() []*workloads.Workload {
	return append(workloads.SPECintSuite(),
		workloads.Stressmark(false), workloads.Stressmark(true), workloads.ActiveIdle())
}

// workloadState is a deep copy of a workload's exported fields and its
// program's; prog records which program it pointed to.
type workloadState struct {
	Name           string
	Category       workloads.Category
	Weight         float64
	Budget, Warmup uint64
	ProgName       string
	Code           []isa.Inst
	Entry          int
	CodeBase       uint64
	InitGPR        map[int]uint64
	InitMem        map[uint64][]byte
	prog           *isa.Program
}

func stateOf(w *workloads.Workload) workloadState {
	p := w.Prog
	mem := make(map[uint64][]byte, len(p.InitMem))
	for addr, b := range p.InitMem {
		mem[addr] = bytes.Clone(b)
	}
	return workloadState{
		Name: w.Name, Category: w.Category, Weight: w.Weight, Budget: w.Budget, Warmup: w.Warmup,
		ProgName: p.Name, Code: slices.Clone(p.Code), Entry: p.Entry, CodeBase: p.CodeBase,
		InitGPR: maps.Clone(p.InitGPR), InitMem: mem, prog: p,
	}
}
