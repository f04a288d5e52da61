// Package simpoint implements the SimPoint 3.0 phase-analysis pipeline
// the paper uses for clustering interval feature vectors: sparse vectors
// are L1-normalized, randomly projected to a low dimension, clustered
// with weighted k-means across candidate cluster counts, and the best
// clustering under the Bayesian Information Criterion is selected. Each
// cluster contributes one representative interval (the member closest to
// the centroid) and a representation ratio (the cluster's share of total
// dynamic instructions) — the weights used to extrapolate whole-program
// performance from simulated subsets.
//
// SimPoint 3.0's support for variable-size intervals is modelled by
// weighting each interval's influence by its instruction count, both in
// the k-means objective and in the representation ratios.
package simpoint

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"gtpin/internal/features"
)

// Config controls the clustering pipeline.
type Config struct {
	// MaxK is the maximum number of clusters (and therefore selected
	// intervals); the paper uses 10. Fewer clusters may be returned if a
	// smaller k scores well under BIC.
	MaxK int
	// Dims is the random-projection dimensionality; SimPoint uses 15.
	Dims int
	// Seed drives k-means++ initialization and restarts.
	Seed int64
	// BICFrac is the fraction of the BIC score range a clustering must
	// reach to be chosen; SimPoint's default policy picks the smallest k
	// scoring at least 90% of the best.
	BICFrac float64
	// Restarts is the number of random k-means initializations per k.
	Restarts int
	// MaxIters bounds Lloyd iterations per run.
	MaxIters int
	// MaxSample bounds the number of intervals the k-means iterations
	// run over; larger inputs are weighted-sampled first and every
	// interval is assigned to the nearest resulting center afterwards
	// (SimPoint's sampled clustering for very long programs). Zero means
	// the default of 3000.
	MaxSample int
}

// DefaultConfig returns the paper's settings: up to 10 clusters,
// 15 projected dimensions, 90% BIC threshold.
func DefaultConfig(seed int64) Config {
	return Config{MaxK: 10, Dims: 15, Seed: seed, BICFrac: 0.9, Restarts: 3, MaxIters: 60, MaxSample: 3000}
}

// Selection is one chosen representative interval.
type Selection struct {
	// Interval is the index of the representative interval.
	Interval int
	// Ratio is the cluster's representation ratio: its share of the
	// total weight (dynamic instructions). Ratios sum to 1.
	Ratio float64
	// Cluster is the cluster index.
	Cluster int
}

// Result is the outcome of a clustering run.
type Result struct {
	// K is the chosen number of clusters.
	K int
	// Selections holds one representative per non-empty cluster.
	Selections []Selection
	// Assign maps each interval to its cluster.
	Assign []int
	// BIC holds the score for each candidate k (index k-1).
	BIC []float64
}

// Run clusters interval feature vectors. weights[i] is interval i's
// dynamic instruction count.
func Run(vecs []features.Vector, weights []float64, cfg Config) (*Result, error) {
	res, _, err := run(vecs, weights, cfg)
	return res, err
}

// run is Run, also counting the work its k-means runs skipped.
func run(vecs []features.Vector, weights []float64, cfg Config) (*Result, shortcuts, error) {
	var sc shortcuts
	n := len(vecs)
	if n == 0 {
		return nil, sc, fmt.Errorf("simpoint: no intervals")
	}
	if len(weights) != n {
		return nil, sc, fmt.Errorf("simpoint: %d weights for %d intervals", len(weights), n)
	}
	if cfg.MaxK <= 0 || cfg.Dims <= 0 {
		return nil, sc, fmt.Errorf("simpoint: invalid config (MaxK=%d, Dims=%d)", cfg.MaxK, cfg.Dims)
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 60
	}

	pts := group(Project(vecs, cfg.Dims))
	totalW := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, sc, fmt.Errorf("simpoint: negative weight")
		}
		totalW += w
	}
	if totalW == 0 {
		return nil, sc, fmt.Errorf("simpoint: zero total weight")
	}

	maxK := cfg.MaxK
	if maxK > n {
		maxK = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Sampled clustering for very long programs: iterate k-means over a
	// weighted sample, then assign every interval to its nearest center.
	maxSample := cfg.MaxSample
	if maxSample <= 0 {
		maxSample = 3000
	}
	kpts, kweights := pts, weights
	if n > maxSample {
		idx := sampleIndices(weights, maxSample, rng)
		sample := make([][]float64, len(idx))
		kweights = make([]float64, len(idx))
		for i, j := range idx {
			sample[i] = pts.at[j]
			kweights[i] = weights[j]
		}
		kpts = group(sample)
	}

	type candidate struct {
		assign  []int
		centers [][]float64
		bic     float64
	}
	cands := make([]candidate, maxK)
	dist := make([]float64, len(pts.first)) // bic's scratch
	for k := 1; k <= maxK; k++ {
		best := candidate{bic: math.Inf(-1)}
		for r := 0; r < cfg.Restarts; r++ {
			centers := kmeans(kpts, kweights, k, cfg.MaxIters, rng, &sc)
			assign := assignAll(pts, centers)
			b := bic(pts, weights, assign, centers, totalW, dist)
			if b > best.bic {
				best = candidate{assign: assign, centers: centers, bic: b}
			}
		}
		cands[k-1] = best
	}

	// Pick the smallest k whose BIC reaches BICFrac of the score range.
	minB, maxB := cands[0].bic, cands[0].bic
	for _, c := range cands {
		minB = math.Min(minB, c.bic)
		maxB = math.Max(maxB, c.bic)
	}
	threshold := minB + cfg.BICFrac*(maxB-minB)
	chosen := maxK - 1
	for i := range cands {
		if cands[i].bic >= threshold {
			chosen = i
			break
		}
	}

	c := cands[chosen]
	res := &Result{K: chosen + 1, Assign: c.assign}
	for i := range cands {
		res.BIC = append(res.BIC, cands[i].bic)
	}

	// Representative per cluster: the member nearest the centroid;
	// ratio = cluster weight share. A group's members share its distance
	// and its center, so under the strict < only its lowest index can
	// win, and only that index's distance is summed.
	k := chosen + 1
	clusterW := make([]float64, k)
	bestIdx := make([]int, k)
	bestDist := make([]float64, k)
	for i := range bestIdx {
		bestIdx[i] = -1
		bestDist[i] = math.Inf(1)
	}
	for i, a := range c.assign {
		clusterW[a] += weights[i]
		if pts.first[pts.group[i]] != i {
			continue
		}
		d := sqDist(pts.at[i], c.centers[a])
		if d < bestDist[a] {
			bestDist[a] = d
			bestIdx[a] = i
		}
	}
	for cl := 0; cl < k; cl++ {
		if bestIdx[cl] < 0 {
			continue // empty cluster
		}
		res.Selections = append(res.Selections, Selection{
			Interval: bestIdx[cl],
			Ratio:    clusterW[cl] / totalW,
			Cluster:  cl,
		})
	}
	if len(res.Selections) == 0 {
		return nil, sc, fmt.Errorf("simpoint: clustering produced no selections")
	}
	return res, sc, nil
}

// Project maps sparse feature vectors to dense cfg.Dims-dimensional
// points: each vector is L1-normalized, then each feature key contributes
// its value along a deterministic pseudo-random direction derived from
// the key. Keys hash to the same direction across vectors, so projection
// preserves relative geometry without materializing a projection matrix.
func Project(vecs []features.Vector, dims int) [][]float64 {
	pts := make([][]float64, len(vecs))
	var keys []uint64
	for i, v := range vecs {
		p := make([]float64, dims)
		// Accumulate in sorted key order so the floating-point sums —
		// and therefore every downstream clustering decision — are
		// bit-reproducible across processes (map iteration order is not).
		keys = keys[:0]
		for key := range v {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		norm := 0.0
		for _, key := range keys {
			norm += v[key]
		}
		if norm == 0 {
			pts[i] = p
			continue
		}
		for _, key := range keys {
			x := v[key] / norm
			for j := 0; j < dims; j++ {
				p[j] += x * direction(key, j)
			}
		}
		pts[i] = p
	}
	return pts
}

// direction returns the j-th component of feature key's projection
// direction, a deterministic uniform value in [-1, 1).
func direction(key uint64, j int) float64 {
	x := key + uint64(j)*0x9E3779B97F4A7C15
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// points is a projected interval sequence with its points grouped by
// bit-identical coordinates. Intervals that relaunch the same kernels
// over the same work, or whose vectors are proportional, project to one
// point, and a distance computed from coordinates alone is the same for
// every member of a group, so it is computed once per group. Sums over
// weights or indices still run over every point in index order.
type points struct {
	at    [][]float64 // at[i] is point i's coordinates
	group []int       // group[i] is point i's group
	first []int       // first[g] is group g's lowest index; it ascends with g
}

// group partitions pts by coordinate bits (math.Float64bits, so +0 and
// -0 differ), numbering the groups in order of first occurrence. It
// sorts indices rather than hashing keys, so it allocates three slices
// whatever the number of groups.
func group(pts [][]float64) points {
	n := len(pts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmpBits(pts[a], pts[b]); c != 0 {
			return c
		}
		return a - b
	})
	// Map each point to the head of its run in that order, which is the
	// lowest index with its bits, then number the heads in index order.
	g := make([]int, n)
	groups := 0
	for r, i := range order {
		if r == 0 || cmpBits(pts[order[r-1]], pts[i]) != 0 {
			g[i] = i
			groups++
		} else {
			g[i] = g[order[r-1]]
		}
	}
	first := make([]int, 0, groups)
	for i, head := range g {
		if head == i {
			g[i] = len(first)
			first = append(first, i)
		} else {
			g[i] = g[head] // head < i is numbered already
		}
	}
	return points{at: pts, group: g, first: first}
}

// cmpBits orders points by their coordinates' bits.
func cmpBits(a, b []float64) int {
	for j, x := range a {
		if c := cmp.Compare(math.Float64bits(x), math.Float64bits(b[j])); c != 0 {
			return c
		}
	}
	return 0
}

// assignAll maps every point to its nearest center.
func assignAll(pts points, centers [][]float64) []int {
	assign := make([]int, len(pts.at))
	for i, p := range pts.at {
		if f := pts.first[pts.group[i]]; f < i {
			assign[i] = assign[f]
			continue
		}
		assign[i], _, _ = nearest(p, centers)
	}
	return assign
}

// nearest returns the index of the center nearest p (the lowest index on
// ties), its squared distance, and how many candidates it dropped early.
// A candidate is dropped once its running sum of squares reaches the best
// distance so far: adding d*d >= 0 never lowers a sum under
// round-to-nearest, so it could not have won, and every sum that is not
// dropped accumulates in sqDist's order. The argmin and the winner's
// distance are therefore bit for bit those of a full scan with sqDist.
func nearest(p []float64, centers [][]float64) (best int, bestD float64, pruned int) {
	bestD = math.Inf(1)
	for c, ctr := range centers {
		ctr = ctr[:len(p)]
		s := 0.0
		for j, x := range p {
			d := x - ctr[j]
			s += d * d
			if s >= bestD {
				pruned++
				break
			}
		}
		if s < bestD {
			best, bestD = c, s
		}
	}
	return best, bestD, pruned
}

// sampleIndices draws m distinct interval indices with probability
// proportional to weight, via systematic sampling over the cumulative
// weight with a random phase.
func sampleIndices(weights []float64, m int, rng *rand.Rand) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	step := total / float64(m)
	next := rng.Float64() * step
	idx := make([]int, 0, m)
	acc := 0.0
	for i, w := range weights {
		acc += w
		for next < acc && len(idx) < m {
			idx = append(idx, i)
			next += step
		}
	}
	// Deduplicate (an index can absorb several steps when its weight is
	// large); k-means weights already account for mass, so keep one copy.
	out := idx[:0]
	prev := -1
	for _, i := range idx {
		if i != prev {
			out = append(out, i)
			prev = i
		}
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// shortcuts counts the work kmeans skipped without changing its result.
type shortcuts struct {
	iters  int // Lloyd iterations skipped as repeats of a proven cycle
	pruned int // candidate distances nearest stopped summing early
}

// kmeans runs weighted Lloyd's algorithm with k-means++ seeding and
// returns the centers after maxIters iterations or convergence, adding
// the work it skipped to sc.
//
// A point's nearest center and its distance to any center depend only on
// its coordinates, so kmeans keeps both per group of pts. The centroid
// sums still add every point's weighted coordinates in index order, so
// every center is bit for bit that of a loop over points.
//
// The loop body is a pure function of (assign, centers): the RNG is drawn
// only by seedPlusPlus, before the loop. So once the state at the top of
// an iteration equals an earlier one bit for bit, the run is in a cycle
// none of whose states ended the loop, and the state after maxIters
// iterations is the one (maxIters-iter) mod period iterations on; kmeans
// runs only those. Runs that keep reseeding an empty cluster fall into
// such cycles within a few iterations and would otherwise spin to
// maxIters. Cycles are found with Brent's method: one snapshot, re-saved
// at iterations 1, 2, 4, 8, …. After a skip fewer than a period's
// iterations remain, so no state can match the snapshot again.
func kmeans(pts points, weights []float64, k, maxIters int, rng *rand.Rand, sc *shortcuts) [][]float64 {
	groups := len(pts.first)
	dims := len(pts.at[0])
	centers := seedPlusPlus(pts, weights, k, rng)
	assign := make([]int, groups)   // each group's center
	dist := make([]float64, groups) // each group's distance to its center
	sums := make([][]float64, k)
	flat := make([]float64, k*dims)
	for c := range sums {
		sums[c] = flat[c*dims : (c+1)*dims]
	}
	ws := make([]float64, k)
	var snap snapshot

	for iter := 0; iter < maxIters; iter++ {
		if iter > 0 {
			if snap.iter > 0 && snap.matches(assign, centers) {
				// Skip whole periods: the state here is the state then.
				period := iter - snap.iter
				skip := (maxIters - iter) / period * period
				iter += skip
				sc.iters += skip
				if iter == maxIters {
					break
				}
			} else if iter&(iter-1) == 0 {
				snap.save(iter, assign, centers)
			}
		}
		changed := false
		for g, i := range pts.first {
			best, d, pruned := nearest(pts.at[i], centers)
			sc.pruned += pruned
			dist[g] = d
			if assign[g] != best {
				assign[g] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute weighted centroids.
		clear(flat)
		clear(ws)
		for i, p := range pts.at {
			c := assign[pts.group[i]]
			w := weights[i]
			ws[c] += w
			row := sums[c][:len(p)]
			for j, x := range p {
				row[j] += w * x
			}
		}
		fresh := 0 // dist is current for groups assigned below fresh or at c and above
		for c := range centers {
			if ws[c] == 0 {
				// Empty cluster: reseed to the point farthest from its
				// center, the lowest index on ties: groups ascend in their
				// lowest index, and only a strictly farther one replaces
				// the best so far. Centers below c are already updated and
				// change no more this iteration, so a group's distance to
				// its center is summed at most once more.
				far, farD := 0, -1.0
				for g, i := range pts.first {
					if a := assign[g]; a >= fresh && a < c {
						dist[g] = sqDist(pts.at[i], centers[a])
					}
					if dist[g] > farD {
						far, farD = i, dist[g]
					}
				}
				fresh = c
				copy(centers[c], pts.at[far])
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / ws[c]
			}
		}
	}
	return centers
}

// snapshot is kmeans's state at the top of iteration iter (0: none yet).
type snapshot struct {
	iter    int
	assign  []int
	centers []float64
}

func (s *snapshot) save(iter int, assign []int, centers [][]float64) {
	s.iter = iter
	s.assign = append(s.assign[:0], assign...)
	s.centers = slices.Grow(s.centers[:0], len(centers)*len(centers[0]))
	for _, c := range centers {
		s.centers = append(s.centers, c...)
	}
}

// matches reports whether the state equals the snapshot bit for bit.
func (s *snapshot) matches(assign []int, centers [][]float64) bool {
	i := 0
	for _, c := range centers {
		for _, x := range c {
			if math.Float64bits(x) != math.Float64bits(s.centers[i]) {
				return false
			}
			i++
		}
	}
	return slices.Equal(assign, s.assign)
}

// seedPlusPlus performs weighted k-means++ initialization. A group's
// squared distance to the nearest center so far is kept once; the
// weighted sum and the pick run over every point in index order.
func seedPlusPlus(pts points, weights []float64, k int, rng *rand.Rand) [][]float64 {
	n := len(pts.at)
	centers := make([][]float64, 0, k)
	// First center: weighted random point.
	centers = append(centers, clonePt(pts.at[weightedPick(weights, rng)]))
	d2 := make([]float64, len(pts.first))
	for len(centers) < k {
		last := centers[len(centers)-1]
		for g, i := range pts.first {
			d := sqDist(pts.at[i], last)
			if len(centers) == 1 || d < d2[g] {
				d2[g] = d
			}
		}
		sum := 0.0
		for i, g := range pts.group {
			sum += d2[g] * weights[i]
		}
		if sum == 0 {
			// All points coincide with centers; duplicate any point.
			centers = append(centers, clonePt(pts.at[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * sum
		acc := 0.0
		pick := n - 1
		for i, g := range pts.group {
			acc += d2[g] * weights[i]
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clonePt(pts.at[pick]))
	}
	return centers
}

func weightedPick(weights []float64, rng *rand.Rand) int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	r := rng.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		acc += w
		if acc >= r {
			return i
		}
	}
	return len(weights) - 1
}

func clonePt(p []float64) []float64 {
	c := make([]float64, len(p))
	copy(c, p)
	return c
}

// bic scores a clustering with the Bayesian Information Criterion under
// a spherical Gaussian model (the X-means formulation), with interval
// weights acting as effective point counts. dist is scratch with one
// entry per group of pts.
func bic(pts points, weights []float64, assign []int, centers [][]float64, totalW float64, dist []float64) float64 {
	k := len(centers)
	d := float64(len(pts.at[0]))
	// Pooled within-cluster variance.
	for g, i := range pts.first {
		dist[g] = sqDist(pts.at[i], centers[assign[i]])
	}
	ss := 0.0
	for i, g := range pts.group {
		ss += weights[i] * dist[g]
	}
	denom := totalW - float64(k)
	if denom <= 0 {
		denom = 1e-12
	}
	sigma2 := ss / (d * denom)
	// Variance floor: projected coordinates live in [-1, 1]; treat
	// spread below ~0.1% of that scale as measurement noise so the
	// likelihood cannot reward subdividing point-like clusters forever
	// (the classic spherical-BIC over-splitting pathology).
	if sigma2 < 1e-6 {
		sigma2 = 1e-6
	}
	clusterW := make([]float64, k)
	for i, a := range assign {
		clusterW[a] += weights[i]
	}
	loglik := 0.0
	for _, w := range clusterW {
		if w > 0 {
			loglik += w * math.Log(w/totalW)
		}
	}
	loglik += -totalW * d / 2 * math.Log(2*math.Pi*sigma2)
	loglik += -(totalW - float64(k)) * d / 2
	params := float64(k) * (d + 1)
	return loglik - params/2*math.Log(totalW)
}
