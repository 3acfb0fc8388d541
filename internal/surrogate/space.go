package surrogate

import (
	"fmt"

	"power10sim/internal/uarch"
)

// Point is one hypothetical design-space point: a generated configuration at
// an SMT level.
type Point struct {
	Cfg *uarch.Config
	SMT int
}

// rng is a splitmix64 stream: deterministic for a given seed, so a design
// space is a pure function of (n, seed) and two explorer processes enumerate
// byte-identical spaces.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// pickInt selects one element of a discrete grid.
func (r *rng) pickInt(grid []int) int { return grid[r.next()%uint64(len(grid))] }

func (r *rng) pickBool() bool { return r.next()&1 == 1 }

// cachePoint couples a cache size with a physically plausible latency:
// bigger arrays are slower, and letting the two vary independently would
// fill the space with configurations no floorplan could build.
type cachePoint struct {
	kib int
	lat int
}

// Space generates n hypothetical POWER10-derived configurations, each a
// deterministic sample over discrete per-dimension grids spanning the
// paper's design levers: out-of-order window, issue/rename capacity, cache
// geometry, pipe and port counts, memory latency, MMA presence and width,
// and the SMT level. Names are "dse<seed>-<index>", so a config's name is
// reproducible across processes for a given (n, seed). The names resolve in
// no catalog: ledger records of explorer fallback simulations carry their
// full spec inline (runlog.Record.Spec), which is what a later training run
// reads the geometry back from.
func Space(n int, seed uint64) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Each point draws from its own stream keyed by (seed, i): point j
		// is identical whether the space has 100 or 100k points.
		r := &rng{state: seed<<32 ^ uint64(i)*0x9E3779B97F4A7C15}
		c := uarch.POWER10()
		c.Name = fmt.Sprintf("dse%d-%05d", seed, i)
		c.FetchWidth = r.pickInt([]int{4, 8, 16})
		c.FetchBufEntries = r.pickInt([]int{64, 128, 192, 256})
		c.DecodeWidth = r.pickInt([]int{4, 6, 8, 10})
		c.RetireWidth = c.DecodeWidth
		c.BranchResolveLatency = r.pickInt([]int{10, 13, 16})
		c.InstrTableEntries = r.pickInt([]int{128, 192, 256, 384, 512, 768, 1024})
		c.IssueQueueEntries = r.pickInt([]int{32, 48, 64, 96, 128, 192})
		c.RenameRegs = r.pickInt([]int{160, 200, 240, 280, 320, 360})
		c.IntPipes = r.pickInt([]int{4, 6, 8, 10})
		c.VSXPipes = r.pickInt([]int{2, 4, 8})
		c.BranchPipes = r.pickInt([]int{2, 4})
		c.LoadPorts = r.pickInt([]int{2, 4, 6})
		c.StorePorts = r.pickInt([]int{2, 4})
		c.LoadQueueEntries = r.pickInt([]int{64, 96, 128, 192})
		c.StoreQueueEntries = r.pickInt([]int{40, 64, 80, 120})
		c.LoadMissQueue = r.pickInt([]int{8, 12, 16, 24})
		l1d := []cachePoint{{32, 4}, {48, 4}, {64, 5}}[r.next()%3]
		c.L1D.SizeBytes = l1d.kib << 10
		c.L1D.Latency = l1d.lat
		l2 := []cachePoint{{512, 12}, {1024, 13}, {2048, 13}, {4096, 14}}[r.next()%4]
		c.L2.SizeBytes = l2.kib << 10
		c.L2.Latency = l2.lat
		l3 := []cachePoint{{4 << 10, 25}, {8 << 10, 27}, {16 << 10, 30}}[r.next()%3]
		c.L3.SizeBytes = l3.kib << 10
		c.L3.Latency = l3.lat
		c.MemLatency = r.pickInt([]int{260, 300, 340})
		c.PrefetchStreams = r.pickInt([]int{8, 16, 32})
		c.BPred.DirEntries = r.pickInt([]int{8192, 16384, 32768})
		c.BPred.BTBEntries = r.pickInt([]int{4096, 8192, 16384})
		c.HasMMA = r.pickBool()
		if c.HasMMA {
			c.MMAThroughput = r.pickInt([]int{1, 2, 4})
		} else {
			c.MMAThroughput = 0
			c.MMALatency = 0
			c.MMAAccumForwarding = false
		}
		smt := r.pickInt([]int{1, 2, 4, 8})
		pts = append(pts, Point{Cfg: c, SMT: smt})
	}
	return pts
}
