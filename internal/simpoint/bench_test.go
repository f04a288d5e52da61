package simpoint

import (
	"fmt"
	"math/rand"
	"testing"

	"gtpin/internal/features"
)

// profileCorpus builds n interval vectors shaped like the tiny-scale
// profiles the selection sweep clusters: a few phases, each a fixed mix
// of basic-block counts, and every interval one of them at some scale or
// a phase's short tail launch (an application relaunches the same
// kernels over the same work, and L1 normalization makes proportional
// vectors coincide). In the benchmark's select workload at seed 1 a
// k-means run clusters 51.4 intervals on average, 7.5 of them distinct;
// profileCorpus(100) has 6. So k-means sees many coincident points and,
// for k above that, empty clusters.
func profileCorpus(n int) ([]features.Vector, []float64) {
	rng := rand.New(rand.NewSource(7))
	protos := phaseProtos(rng)
	vecs := make([]features.Vector, n)
	weights := make([]float64, n)
	for i := range vecs {
		p := (i / 3) % len(protos)
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

// distinctCorpus builds n interval vectors from four phases like
// profileCorpus's, with every basic-block count of every interval
// jittered by up to 10%, so no two intervals project to the same point:
// grouping points by their coordinates saves nothing here. It visits
// each phase's blocks in order, so the jitter and the weights' sums are
// the same on every call.
func distinctCorpus(n int) ([]features.Vector, []float64) {
	rng := rand.New(rand.NewSource(8))
	protos := phaseProtos(rng)
	vecs := make([]features.Vector, n)
	weights := make([]float64, n)
	for i := range vecs {
		p := (i / 3) % len(protos)
		v := make(features.Vector, len(protos[p]))
		for b := range len(protos[p]) {
			key := uint64(p*64 + b)
			v[key] = protos[p][key] * (1 + rng.Float64()/10)
			weights[i] += v[key]
		}
		vecs[i] = v
	}
	return vecs, weights
}

// phaseProtos draws four phases, phase p a mix of integer counts for
// basic blocks p*64, p*64+1, … (at most 19 of them).
func phaseProtos(rng *rand.Rand) []features.Vector {
	protos := make([]features.Vector, 4)
	for p := range protos {
		v := features.Vector{}
		for b := 0; b < 8+rng.Intn(12); b++ {
			v[uint64(p*64+b)] = float64(1 + rng.Intn(500))
		}
		protos[p] = v
	}
	return protos
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

// BenchmarkRunDistinct is BenchmarkRun on inputs whose intervals all
// project to distinct points, at two lengths.
func BenchmarkRunDistinct(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vecs, weights := distinctCorpus(n)
			cfg := DefaultConfig(1)
			if g := len(group(Project(vecs, cfg.Dims)).first); g != n {
				b.Fatalf("%d distinct points among %d intervals", g, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(vecs, weights, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
