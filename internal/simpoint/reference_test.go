package simpoint

import (
	"fmt"
	"math"
	"math/rand"

	"gtpin/internal/features"
)

// The reference pipeline: Run with every distance summed in full, once
// per point, and every Lloyd iteration run to convergence or maxIters.
// run must reproduce it bit for bit; the differential tests run both and
// compare the results. The reference calls only code it shares with run
// that run's shortcuts leave alone: Project, sampleIndices, sqDist,
// weightedPick and clonePt.

// refRun is the reference Run.
func refRun(vecs []features.Vector, weights []float64, cfg Config) (*Result, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("simpoint: no intervals")
	}
	if len(weights) != n {
		return nil, fmt.Errorf("simpoint: %d weights for %d intervals", len(weights), n)
	}
	if cfg.MaxK <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("simpoint: invalid config (MaxK=%d, Dims=%d)", cfg.MaxK, cfg.Dims)
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 60
	}

	pts := Project(vecs, cfg.Dims)
	totalW := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("simpoint: negative weight")
		}
		totalW += w
	}
	if totalW == 0 {
		return nil, fmt.Errorf("simpoint: zero total weight")
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
		kpts = make([][]float64, len(idx))
		kweights = make([]float64, len(idx))
		for i, j := range idx {
			kpts[i] = pts[j]
			kweights[i] = weights[j]
		}
	}

	type candidate struct {
		assign  []int
		centers [][]float64
		bic     float64
	}
	cands := make([]candidate, maxK)
	for k := 1; k <= maxK; k++ {
		best := candidate{bic: math.Inf(-1)}
		for r := 0; r < cfg.Restarts; r++ {
			assign, centers := refLloyd(pts, kpts, kweights, k, cfg.MaxIters, rng)
			b := refBic(pts, weights, assign, centers, totalW)
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
	// ratio = cluster weight share.
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
		d := sqDist(pts[i], c.centers[a])
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
		return nil, fmt.Errorf("simpoint: clustering produced no selections")
	}
	return res, nil
}

// refLloyd clusters kpts into k centers with the reference loop and
// assigns every point of pts to its nearest center.
func refLloyd(pts, kpts [][]float64, kweights []float64, k, maxIters int, rng *rand.Rand) ([]int, [][]float64) {
	_, centers := refKmeans(kpts, kweights, k, maxIters, rng)
	return refAssignAll(pts, centers), centers
}

// refAssignAll maps every point to its nearest center.
func refAssignAll(pts [][]float64, centers [][]float64) []int {
	assign := make([]int, len(pts))
	for i, p := range pts {
		best, bestD := 0, math.Inf(1)
		for c := range centers {
			if d := sqDist(p, centers[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return assign
}

// refKmeans runs weighted Lloyd's algorithm with k-means++ seeding.
func refKmeans(pts [][]float64, weights []float64, k, maxIters int, rng *rand.Rand) ([]int, [][]float64) {
	n := len(pts)
	dims := len(pts[0])
	centers := refSeedPlusPlus(pts, weights, k, rng)
	assign := make([]int, n)

	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute weighted centroids.
		sums := make([][]float64, k)
		ws := make([]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for i, p := range pts {
			c := assign[i]
			w := weights[i]
			ws[c] += w
			for j, x := range p {
				sums[c][j] += w * x
			}
		}
		for c := range centers {
			if ws[c] == 0 {
				// Empty cluster: reseed to the point farthest from its
				// center.
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := sqDist(p, centers[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centers[c], pts[far])
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / ws[c]
			}
		}
	}
	// Final assignment against final centers.
	for i, p := range pts {
		best, bestD := 0, math.Inf(1)
		for c := range centers {
			if d := sqDist(p, centers[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return assign, centers
}

// refSeedPlusPlus performs weighted k-means++ initialization.
func refSeedPlusPlus(pts [][]float64, weights []float64, k int, rng *rand.Rand) [][]float64 {
	n := len(pts)
	centers := make([][]float64, 0, k)
	// First center: weighted random point.
	centers = append(centers, clonePt(pts[weightedPick(weights, rng)]))
	d2 := make([]float64, n)
	for len(centers) < k {
		sum := 0.0
		last := centers[len(centers)-1]
		for i, p := range pts {
			d := sqDist(p, last)
			if len(centers) == 1 || d < d2[i] {
				d2[i] = d
			}
			sum += d2[i] * weights[i]
		}
		if sum == 0 {
			// All points coincide with centers; duplicate any point.
			centers = append(centers, clonePt(pts[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * sum
		acc := 0.0
		pick := n - 1
		for i := range pts {
			acc += d2[i] * weights[i]
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clonePt(pts[pick]))
	}
	return centers
}

// refBic scores a clustering with the Bayesian Information Criterion under
// a spherical Gaussian model (the X-means formulation), with interval
// weights acting as effective point counts.
func refBic(pts [][]float64, weights []float64, assign []int, centers [][]float64, totalW float64) float64 {
	k := len(centers)
	d := float64(len(pts[0]))
	// Pooled within-cluster variance.
	ss := 0.0
	for i, p := range pts {
		ss += weights[i] * sqDist(p, centers[assign[i]])
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
