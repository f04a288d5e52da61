package simpoint

import (
	"math/rand"
	"testing"

	"gtpin/internal/features"
)

// profileCorpus builds n interval vectors shaped like the tiny-scale
// profiles the selection sweep clusters: a few phases, each a fixed mix
// of basic-block counts, and every interval one of them at some scale or
// a phase's short tail launch (an application relaunches the same
// kernels over the same work, and L1 normalization makes proportional
// vectors coincide). Most of those profiles have at most five distinct
// points among 20 to 100 intervals, so k-means sees many coincident
// points and, for k above that, empty clusters.
func profileCorpus(n int) ([]features.Vector, []float64) {
	rng := rand.New(rand.NewSource(7))
	const phases = 4
	protos := make([]features.Vector, phases)
	for p := range protos {
		v := features.Vector{}
		for b := 0; b < 8+rng.Intn(12); b++ {
			v[uint64(p*64+b)] = float64(1 + rng.Intn(500))
		}
		protos[p] = v
	}
	vecs := make([]features.Vector, n)
	weights := make([]float64, n)
	for i := range vecs {
		p := (i / 3) % phases
		scale := float64(1 + rng.Intn(3))
		v := make(features.Vector, len(protos[p]))
		for key, x := range protos[p] {
			v[key] = x * scale
		}
		if p < 2 && rng.Intn(6) == 0 {
			v[uint64(p*64)] *= 4 // the phase's tail launch
		}
		vecs[i] = v
		for _, x := range v {
			weights[i] += x
		}
	}
	return vecs, weights
}

var benchResult *Result

// BenchmarkRun clusters one profile-shaped interval sequence with the
// paper's settings (up to 10 clusters, 3 restarts, 60 Lloyd iterations).
func BenchmarkRun(b *testing.B) {
	vecs, weights := profileCorpus(100)
	cfg := DefaultConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(vecs, weights, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}
