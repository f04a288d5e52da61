package simpoint

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gtpin/internal/features"
)

// diffCase is one differential input: sparse interval vectors drawn from
// a few phases, many of them exact copies (coincident points leave
// clusters empty, and empty-cluster reseeding is what makes Lloyd cycle),
// with weights that include zeros.
type diffCase struct {
	vecs    []features.Vector
	weights []float64
	cfg     Config
}

func (c diffCase) String() string {
	return fmt.Sprintf("n=%d MaxK=%d Dims=%d MaxIters=%d MaxSample=%d Seed=%d",
		len(c.vecs), c.cfg.MaxK, c.cfg.Dims, c.cfg.MaxIters, c.cfg.MaxSample, c.cfg.Seed)
}

func genDiffCase(rng *rand.Rand) diffCase {
	n := []int{1, 2, 3, 7, 12, 25, 40, 90, 200}[rng.Intn(9)]
	phases := 1 + rng.Intn(5)
	protos := make([]features.Vector, phases)
	for p := range protos {
		v := features.Vector{}
		for j := 0; j < 1+rng.Intn(4); j++ {
			v[uint64(rng.Intn(40))] = float64(1 + rng.Intn(200))
		}
		protos[p] = v
	}
	c := diffCase{vecs: make([]features.Vector, n), weights: make([]float64, n)}
	total := 0.0
	for i := range c.vecs {
		proto := protos[rng.Intn(phases)]
		v := make(features.Vector, len(proto))
		for key, x := range proto {
			v[key] = x
		}
		switch r := rng.Float64(); {
		case r < 0.1:
			v = features.Vector{} // projects to the origin
		case r < 0.35:
			v[uint64(100+rng.Intn(5))] = rng.Float64() * 20
		}
		c.vecs[i] = v
		if rng.Float64() < 0.15 {
			c.weights[i] = 0
		} else {
			c.weights[i] = float64(1 + rng.Intn(1000))
		}
		total += c.weights[i]
	}
	if total == 0 {
		c.weights[0] = 1
	}
	c.cfg = DefaultConfig(rng.Int63())
	c.cfg.MaxK = []int{1, 2, 4, 10}[rng.Intn(4)]
	c.cfg.Dims = []int{1, 2, 15}[rng.Intn(3)]
	if rng.Intn(4) == 0 {
		c.cfg.MaxIters = 1 + rng.Intn(20)
	}
	if n > 8 && rng.Intn(3) == 0 {
		c.cfg.MaxSample = 1 + n/2 + rng.Intn(n/4) // the sampled path
	}
	return c
}

// diffResults reports the first way got differs from want, comparing
// floats by their bits.
func diffResults(got, want *Result) string {
	switch {
	case got.K != want.K:
		return fmt.Sprintf("K %d, want %d", got.K, want.K)
	case len(got.Assign) != len(want.Assign):
		return fmt.Sprintf("%d assignments, want %d", len(got.Assign), len(want.Assign))
	case len(got.Selections) != len(want.Selections):
		return fmt.Sprintf("%d selections, want %d", len(got.Selections), len(want.Selections))
	case len(got.BIC) != len(want.BIC):
		return fmt.Sprintf("%d BIC scores, want %d", len(got.BIC), len(want.BIC))
	}
	for i := range got.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Sprintf("Assign[%d] = %d, want %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for i, s := range got.Selections {
		w := want.Selections[i]
		if s.Interval != w.Interval || s.Cluster != w.Cluster || math.Float64bits(s.Ratio) != math.Float64bits(w.Ratio) {
			return fmt.Sprintf("Selections[%d] = %+v, want %+v", i, s, w)
		}
	}
	for i := range got.BIC {
		if math.Float64bits(got.BIC[i]) != math.Float64bits(want.BIC[i]) {
			return fmt.Sprintf("BIC[%d] = %v, want %v", i, got.BIC[i], want.BIC[i])
		}
	}
	return ""
}

// TestRunMatchesReferenceLloyd drives Run's pipeline with kmeans and with
// the reference loop over random inputs and requires identical results
// bit for bit. The corpus must take both shortcuts: skipping a proven
// cycle and pruning a distance scan.
func TestRunMatchesReferenceLloyd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var taken shortcuts
	counting := func(pts, kpts [][]float64, kweights []float64, k, maxIters int, seed *rand.Rand) ([]int, [][]float64) {
		centers, sc := kmeans(kpts, kweights, k, maxIters, seed)
		taken.iters += sc.iters
		taken.pruned += sc.pruned
		return assignAll(pts, centers), centers
	}
	cases := 1000
	if testing.Short() {
		cases = 150
	}
	sampled := 0
	for i := 0; i < cases; i++ {
		c := genDiffCase(rng)
		if c.cfg.MaxSample > 0 && len(c.vecs) > c.cfg.MaxSample {
			sampled++
		}
		want, werr := run(c.vecs, c.weights, c.cfg, refLloyd)
		got, gerr := run(c.vecs, c.weights, c.cfg, counting)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("case %d (%v): error %v, reference error %v", i, c, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("case %d (%v): %s", i, c, d)
		}
	}
	if taken.iters == 0 {
		t.Error("no case skipped a Lloyd cycle; the corpus does not exercise the cycle skip")
	}
	if taken.pruned == 0 {
		t.Error("no distance scan was pruned; the corpus does not exercise pruning")
	}
	if sampled == 0 {
		t.Error("no case took the sampled path")
	}
	t.Logf("%d cases (%d sampled): %d Lloyd iterations skipped, %d candidates pruned", cases, sampled, taken.iters, taken.pruned)
}

// TestNearestMatchesFullScan pins nearest's contract on hand-picked
// ties: the lowest index wins, and the winner's distance is sqDist's.
func TestNearestMatchesFullScan(t *testing.T) {
	p := []float64{0.5, -0.25, 1}
	centers := [][]float64{{1, 1, 1}, {0.5, -0.25, 0}, {0.5, -0.25, 2}, {0.5, -0.25, 0}}
	best, d, pruned := nearest(p, centers)
	if best != 1 || math.Float64bits(d) != math.Float64bits(sqDist(p, centers[1])) {
		t.Errorf("nearest = %d (%v), want 1 (%v)", best, d, sqDist(p, centers[1]))
	}
	if pruned == 0 {
		t.Error("equal-distance candidates after the winner were not pruned")
	}
}
