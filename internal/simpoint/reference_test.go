package simpoint

import (
	"math"
	"math/rand"
)

// The reference Lloyd loop: every iteration runs to convergence or
// maxIters, and every candidate distance is summed in full. kmeans and
// assignAll must reproduce it bit for bit; the differential tests drive
// Run's pipeline with both and compare the results.

// refLloyd is the reference clusterFunc.
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
	centers := seedPlusPlus(pts, weights, k, rng)
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
