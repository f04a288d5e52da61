package result

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 5, 5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one value: want an error")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := map[int]int{9: -1, 10: 0, 20: 50, 100: 90, 120: 91, 200: 95, 1000: 99, 5000: 99}
	for n, want := range cases {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	// The rule, checked directly: at the returned percentile at least ten
	// samples lie beyond the nearest-rank position, and one percentile
	// higher there would be fewer.
	for n := 10; n <= 400; n++ {
		p := TailPercentile(n)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)*float64(n)/100)) }
		if beyond(p) < 10 || (p < 99 && beyond(p+1) >= 10) {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := Median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty input: want NaN")
	}
}

func TestStampComparable(t *testing.T) {
	a := Stamp{CPUModel: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Commit: "aaa", Workload: "select", Seed: 1, Seconds: 20, Sizes: "s"}
	b := a
	b.Commit, b.Seed = "bbb", 2
	if why := a.Comparable(b); why != "" {
		t.Errorf("commit and seed may differ: %s", why)
	}
	b.GOMAXPROCS = 4
	if a.Comparable(b) == "" {
		t.Error("different GOMAXPROCS must not be comparable")
	}
}

func TestReadChecksSchemaAndCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(f File) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := File{Schema: Schema, Correct: true, Attempted: 3, Metrics: map[string]Metric{"ops_per_s": {Value: 1.5, Unit: "ops/s"}}}
	if _, err := Read(write(good)); err != nil {
		t.Fatalf("good file: %v", err)
	}
	for name, f := range map[string]File{
		"schema":   {Schema: "other", Attempted: 1},
		"attempts": {Schema: Schema, Attempted: 0},
		"failed":   {Schema: Schema, Attempted: 1, Failed: 2},
		"unit":     {Schema: Schema, Attempted: 1, Metrics: map[string]Metric{"x": {Value: 1}}},
	} {
		if _, err := Read(write(f)); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
