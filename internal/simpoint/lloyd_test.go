package simpoint

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gtpin/internal/features"
)

// diffCase is one differential input: sparse interval vectors drawn from
// a few phases, many of them exact copies (coincident points leave
// clusters empty, and empty-cluster reseeding is what makes Lloyd cycle)
// or near copies, with weights that include zeros. In a quarter of the
// cases with more than one interval, every interval projects to its own
// point.
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
	distinct := n > 1 && rng.Intn(4) == 0
	c := diffCase{vecs: make([]features.Vector, n), weights: make([]float64, n)}
	total := 0.0
	for i := range c.vecs {
		proto := protos[rng.Intn(phases)]
		v := make(features.Vector, len(proto))
		for key, x := range proto {
			v[key] = x
		}
		switch r := rng.Float64(); {
		case distinct:
			v[uint64(1000+i)] = 1 + rng.Float64() // a direction of its own
		case r < 0.1:
			v = features.Vector{} // projects to the origin
		case r < 0.35:
			v[uint64(100+rng.Intn(5))] = rng.Float64() * 20
		case r < 0.5 && i > 0:
			// The previous interval at 7 times the work. L1 normalization
			// maps it onto the previous point when its values are
			// integers, and only near it, in the last bits, when not.
			v = make(features.Vector, len(c.vecs[i-1]))
			for key, x := range c.vecs[i-1] {
				v[key] = 7 * x
			}
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

// TestRunMatchesReferenceLloyd runs Run's pipeline and the reference
// pipeline over random inputs and requires identical results bit for
// bit. The corpus must take both k-means shortcuts (skipping a proven
// cycle and pruning a distance scan), the sampled path, and every kind of
// grouping: repeated points, none at all, and points that differ only in
// their last bits.
func TestRunMatchesReferenceLloyd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var taken shortcuts
	cases := 1000
	if testing.Short() {
		cases = 150
	}
	sampled, repeated, distinct, near := 0, 0, 0, 0
	for i := 0; i < cases; i++ {
		c := genDiffCase(rng)
		if c.cfg.MaxSample > 0 && len(c.vecs) > c.cfg.MaxSample {
			sampled++
		}
		pts := group(Project(c.vecs, c.cfg.Dims))
		switch {
		case len(pts.first) < len(c.vecs):
			repeated++
		case len(c.vecs) > 1:
			distinct++
		}
		if hasNearDuplicates(pts) {
			near++
		}
		want, werr := refRun(c.vecs, c.weights, c.cfg)
		got, sc, gerr := run(c.vecs, c.weights, c.cfg)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("case %d (%v): error %v, reference error %v", i, c, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("case %d (%v): %s", i, c, d)
		}
		taken.iters += sc.iters
		taken.pruned += sc.pruned
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
	if repeated == 0 || distinct == 0 || near == 0 {
		t.Errorf("cases with repeated points: %d, with none: %d, with near-duplicates: %d; want each above 0", repeated, distinct, near)
	}
	t.Logf("%d cases (%d sampled, %d with repeated points, %d all distinct, %d with near-duplicates): %d Lloyd iterations skipped, %d candidates pruned",
		cases, sampled, repeated, distinct, near, taken.iters, taken.pruned)
}

// hasNearDuplicates reports whether two groups of pts lie within 1e-12 of
// each other in every coordinate.
func hasNearDuplicates(pts points) bool {
	for g, i := range pts.first {
		for _, j := range pts.first[g+1:] {
			near := true
			for d, x := range pts.at[i] {
				if math.Abs(x-pts.at[j][d]) > 1e-12 {
					near = false
					break
				}
			}
			if near {
				return true
			}
		}
	}
	return false
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

// TestGroup pins group's partition: bit-identical coordinates share a
// group, +0 and -0 or one ulp apart do not, groups are numbered in order
// of first occurrence, and first holds each group's lowest index.
func TestGroup(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pts := [][]float64{
		{0.5, -0.75},
		{0, 1},
		{0.5, -0.75},
		{negZero, 1},
		{0, 1},
		{0.5, math.Nextafter(-0.75, -1)},
		{negZero, 1},
	}
	got := group(pts)
	if want := []int{0, 1, 0, 2, 1, 3, 2}; !slices.Equal(got.group, want) {
		t.Errorf("group = %v, want %v", got.group, want)
	}
	if want := []int{0, 1, 3, 5}; !slices.Equal(got.first, want) {
		t.Errorf("first = %v, want %v", got.first, want)
	}
	one := group([][]float64{{0.25, 3}})
	if !slices.Equal(one.group, []int{0}) || !slices.Equal(one.first, []int{0}) {
		t.Errorf("one point: group %v, first %v", one.group, one.first)
	}

	vecs, _ := profileCorpus(100)
	checkGroups(t, group(Project(vecs, 15)))
	for i := 0; i < 50; i++ {
		c := genDiffCase(rand.New(rand.NewSource(int64(i))))
		checkGroups(t, group(Project(c.vecs, c.cfg.Dims)))
	}
}

// checkGroups requires that pts's groups partition its points by their
// coordinates' bits, in order of first occurrence.
func checkGroups(t *testing.T, pts points) {
	t.Helper()
	for i, p := range pts.at {
		g := pts.group[i]
		if g < 0 || g >= len(pts.first) {
			t.Fatalf("point %d in group %d of %d", i, g, len(pts.first))
		}
		if f := pts.first[g]; f > i {
			t.Fatalf("point %d in group %d, whose lowest index is %d", i, g, f)
		}
		if !sameBits(p, pts.at[pts.first[g]]) {
			t.Fatalf("point %d differs in its bits from its group's first point %d", i, pts.first[g])
		}
	}
	for g, i := range pts.first {
		if pts.group[i] != g {
			t.Fatalf("first[%d] = %d, which is in group %d", g, i, pts.group[i])
		}
		if g > 0 && i <= pts.first[g-1] {
			t.Fatalf("first = %v does not ascend", pts.first)
		}
		for _, j := range pts.first[:g] {
			if sameBits(pts.at[i], pts.at[j]) {
				t.Fatalf("groups of points %d and %d have the same bits", j, i)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
