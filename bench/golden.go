package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"power10sim/internal/sweep"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenPath is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenPath = "bench/testdata/golden.json"

// golden is what the committed outputs of the workloads must be. The sweep
// and long goldens hold for every seed: sweep blocks do not depend on
// experiment order, and every request a long set can draw has an entry.
// The explore digest is for seed 1; on other seeds a campaign is checked
// for its shape (24 simulations a round, none failed, a scored validation)
// and can be compared across commits by its output_digest.
type golden struct {
	// Tables maps each quick-catalog experiment to the sha256 of its stdout
	// block (banner, table, blank line).
	Tables          map[string]string `json:"quick_tables"`
	SweepRequests   uint64            `json:"sweep_requests"`
	SweepUniqueRuns uint64            `json:"sweep_unique_runs"`
	// WarmDiskHits is a warm sweep's persistent-cache hit count, covering
	// simulation results and the figure artifacts runner.CachedJSON keeps.
	WarmDiskHits uint64                `json:"warm_disk_hits"`
	Long         map[string]longGolden `json:"long"`
	ExploreSeed1 string                `json:"explore_seed1_digest"`
}

// longGolden is one long request's full-run result and its sampled
// estimate's errors against that run.
type longGolden struct {
	Cycles             uint64  `json:"cycles"`
	Instructions       uint64  `json:"instructions"`
	SampledCPIErrPct   float64 `json:"sampled_cpi_err_pct"`
	SampledPowerErrPct float64 `json:"sampled_power_err_pct"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return &g, nil
}

// updateGolden recomputes every golden on this commit and writes them to
// goldenPath. Run it only for a change meant to alter the simulator's
// outputs, and review the diff.
func updateGolden(o options, stderr io.Writer) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.workdir, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	// The checks the passes make read this empty golden and are ignored.
	e := &env{ctx: context.Background(), seed: 1, dir: scratch, golden: &golden{}}
	g := &golden{Long: map[string]longGolden{}}

	sj := &sweepJob{order: sweep.Catalog()}
	cache := e.freshDir("cache")
	cold, err := sj.execute(e, cache)
	if err != nil {
		return err
	}
	warm, err := sj.execute(e, cache)
	if err != nil {
		return err
	}
	for name, failed := range cold.failed {
		if failed || warm.digests[name] != cold.digests[name] {
			return fmt.Errorf("sweep %s: failed=%v, warm digest differs=%v", name, failed, warm.digests[name] != cold.digests[name])
		}
	}
	g.Tables = cold.digests
	g.SweepRequests = cold.stats.Hits + cold.stats.Misses
	g.SweepUniqueRuns = cold.stats.Misses
	g.WarmDiskHits = warm.stats.DiskHits
	fmt.Fprintf(stderr, "bench: sweep goldens: %d tables, %d requests, %d unique runs, %d warm disk hits\n",
		len(g.Tables), g.SweepRequests, g.SweepUniqueRuns, g.WarmDiskHits)

	cands := longCandidates()
	names := make([]string, 0, len(cands))
	for name := range cands {
		names = append(names, name)
	}
	sort.Strings(names)
	set := make([]longReq, len(names))
	for i, name := range names {
		set[i] = cands[name]
	}
	full, _, err := runLongSet(e, set, false, "golden")
	if err != nil {
		return err
	}
	sampled, _, err := runLongSet(e, set, true, "golden")
	if err != nil {
		return err
	}
	for i, name := range names {
		if full[i].Err != nil || sampled[i].Err != nil {
			return fmt.Errorf("%s: full %s, sampled %s", name, describe(full[i]), describe(sampled[i]))
		}
		cpiErr, powErr := sampledErrors(sampled[i], full[i])
		g.Long[name] = longGolden{Cycles: full[i].Activity.Cycles, Instructions: full[i].Activity.Instructions,
			SampledCPIErrPct: cpiErr, SampledPowerErrPct: powErr}
	}
	fmt.Fprintf(stderr, "bench: long goldens: %d requests\n", len(g.Long))

	j, err := setupExplore(e)
	if err != nil {
		return err
	}
	p, err := j(e)
	if err != nil {
		return err
	}
	g.ExploreSeed1 = p.digest
	fmt.Fprintf(stderr, "bench: explore seed 1 digest %s\n", p.digest)

	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
