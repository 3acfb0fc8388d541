package sampling

import "math"

// This file is the stdlib-only clustering stage: seeded k-means++ with Lloyd
// iterations, run for every k in [1, MaxK], scored with the spherical-
// Gaussian BIC used by x-means. Everything is deterministic: initialization
// draws from an LCG seeded by Spec.Seed, assignment ties break on the lowest
// cluster index, and the representative pick breaks ties on the lowest
// interval index — so the same trace and spec always produce the same plan.
// KMeans is exported because the Section III-A SimPoint baseline
// (tracepoints.SelectSimpoints) clusters with it too.

// maxLloydIters bounds the refinement loop; the interval counts here (tens
// to low thousands) converge in a handful of iterations.
const maxLloydIters = 64

// cluster picks k by BIC, assigns intervals, and selects representatives.
func (p *Plan) cluster() {
	n := len(p.Intervals)
	maxK := p.Spec.MaxK
	if maxK > n {
		maxK = n
	}
	type solution struct {
		assign []int
		cents  [][]float64
		sse    float64
		bic    float64
	}
	X := make([][]float64, n)
	for i := range p.Intervals {
		X[i] = p.Intervals[i].features
	}
	var best *solution
	for k := 1; k <= maxK; k++ {
		assign, cents, sse := KMeans(X, k, p.Spec.Seed)
		bic := bicScore(p.Intervals, assign, k, sse)
		if best == nil || bic > best.bic {
			best = &solution{assign: assign, cents: cents, sse: sse, bic: bic}
		}
	}
	p.SSE = best.sse
	k := len(best.cents)
	p.Clusters = make([]Cluster, k)
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		c := best.assign[i]
		iv.Cluster = c
		p.Clusters[c].Members++
		p.Clusters[c].Insts += iv.Insts()
	}
	// Representative: the member closest to its centroid (lowest index wins
	// ties). Weight: the cluster's instruction share of the whole trace.
	repDist := make([]float64, k)
	for c := range p.Clusters {
		p.Clusters[c].Rep = -1
		repDist[c] = math.Inf(1)
		p.Clusters[c].Weight = float64(p.Clusters[c].Insts) / float64(p.TotalInsts)
	}
	members := make([][]int, k)
	for i := range p.Intervals {
		c := p.Intervals[i].Cluster
		members[c] = append(members[c], i)
		d := sqDist(p.Intervals[i].features, best.cents[c])
		if d < repDist[c] {
			repDist[c] = d
			p.Clusters[c].Rep = i
		}
	}
	// Reps: each cluster's members in sampling order — a deterministic
	// shuffle, so any prefix is a simple random sample of the phase. The
	// engine simulates the first RepsPerCluster and extends adaptively until
	// its confidence target is met; random order (rather than "closest to
	// centroid first") keeps every prefix unbiased where the centroid pick
	// alone would oversample the phase's densest sub-behavior.
	for c := range p.Clusters {
		order := append([]int(nil), members[c]...)
		rng := lcg{s: mix64(p.Spec.Seed ^ uint64(c)*0x9E3779B97F4A7C15)}
		for i := len(order) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		p.Clusters[c].Reps = order
	}
}

// KMeans runs one seeded k-means++ clustering of the rows of X at a fixed k,
// 1 <= k <= len(X), and returns each row's cluster, the centroids and the
// SSE. The initialization draws from an LCG seeded by seed and k, Lloyd
// refinement stops after maxLloydIters, and clusters that end empty are
// dropped, so len(cents) can be below k and every returned cluster has a
// member.
func KMeans(X [][]float64, k int, seed uint64) (assign []int, cents [][]float64, sse float64) {
	n := len(X)
	dim := len(X[0])
	rng := lcg{s: mix64(seed ^ uint64(k)<<32)}

	// k-means++ initialization: first center from the LCG, each subsequent
	// center drawn with probability proportional to squared distance.
	cents = make([][]float64, 0, k)
	cents = append(cents, clone(X[rng.intn(n)]))
	d2 := make([]float64, n)
	for len(cents) < k {
		var sum float64
		for i := range X {
			d2[i] = nearestSq(X[i], cents)
			sum += d2[i]
		}
		if sum == 0 {
			// All remaining points coincide with existing centers: further
			// centers are duplicates and Lloyd will empty them out.
			cents = append(cents, clone(cents[0]))
			continue
		}
		target := rng.float() * sum
		pick := n - 1
		var run float64
		for i := range d2 {
			run += d2[i]
			if run >= target {
				pick = i
				break
			}
		}
		cents = append(cents, clone(X[pick]))
	}

	assign = make([]int, n)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	for iter := 0; iter < maxLloydIters; iter++ {
		sse = 0
		changed := false
		for i := range X {
			bestC, bestD := 0, math.Inf(1)
			for c := range cents {
				if d := sqDist(X[i], cents[c]); d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[i] = bestC
			sse += bestD
			if prev[i] != bestC {
				changed = true
				prev[i] = bestC
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; an emptied cluster keeps its old centroid.
		counts := make([]int, len(cents))
		next := make([][]float64, len(cents))
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i := range X {
			c := assign[i]
			counts[c]++
			for j, v := range X[i] {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				copy(next[c], cents[c])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range next[c] {
				next[c][j] *= inv
			}
		}
		cents = next
	}
	// Drop emptied clusters so downstream weights never divide by zero;
	// the survivors keep their order and are renumbered from 0.
	counts := make([]int, len(cents))
	for _, c := range assign {
		counts[c]++
	}
	remap := make([]int, len(cents))
	var live [][]float64
	for c := range cents {
		if counts[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(live)
		live = append(live, cents[c])
	}
	for i := range assign {
		assign[i] = remap[assign[i]]
	}
	return assign, live, sse
}

// nearestSq returns the squared distance from x to its nearest existing
// center.
func nearestSq(x []float64, cents [][]float64) float64 {
	best := math.Inf(1)
	for _, c := range cents {
		if d := sqDist(x, c); d < best {
			best = d
		}
	}
	return best
}

// bicScore is the spherical-Gaussian Bayesian information criterion
// (x-means form): log-likelihood of the clustering under a shared-variance
// Gaussian per cluster, penalized by the parameter count. Higher is better.
// A zero-variance (perfect) clustering scores +Inf at the smallest k that
// achieves it, which is exactly the SimPoint-style preference for the
// smallest faithful phase count.
func bicScore(ivs []Interval, assign []int, k int, sse float64) float64 {
	n := float64(len(ivs))
	if len(ivs) == 0 {
		return math.Inf(-1)
	}
	dim := float64(len(ivs[0].features))
	if n <= float64(k) {
		// As many clusters as points: perfectly overfit; only preferable
		// when no smaller k explains the data (sse on smaller k > 0).
		if sse == 0 {
			return math.Inf(-1)
		}
	}
	variance := sse / (dim * math.Max(n-float64(k), 1))
	if variance <= 0 {
		// Perfect fit: +Inf. The k loop ascends and replaces only on a
		// strictly better score, so the smallest perfect k wins.
		return math.Inf(1)
	}
	counts := make([]float64, k)
	for _, c := range assign {
		counts[c]++
	}
	var loglik float64
	for _, nc := range counts {
		if nc > 0 {
			loglik += nc * math.Log(nc/n)
		}
	}
	loglik -= n * dim / 2 * math.Log(2*math.Pi*variance)
	loglik -= dim * (n - float64(k)) / 2
	params := float64(k) * (dim + 1)
	return loglik - params/2*math.Log(n)
}

// sqDist is the squared Euclidean distance.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// lcg is the deterministic pseudo-random source for k-means++ init.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return mix64(l.s)
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

func (l *lcg) float() float64 { return float64(l.next()>>11) / (1 << 53) }
