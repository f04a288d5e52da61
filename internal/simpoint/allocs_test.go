package simpoint

import "testing"

// TestRunAllocs pins what Run allocates on BenchmarkRun's corpus. The
// grouping allocates once per Run, in proportion to the intervals, and
// each k-means run in proportion to the distinct points, so a new
// allocation per interval per k-means run fails here. The count was
// 1,027 when every k-means run allocated per interval and a row per
// centroid sum, and 895 when the cycle snapshot grew its centers one
// append per center.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	vecs, weights := profileCorpus(100)
	cfg := DefaultConfig(1)
	n := testing.AllocsPerRun(10, func() {
		if _, err := Run(vecs, weights, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > 820 {
		t.Fatalf("Run allocates %.0f times, want at most 820", n)
	}
}
