// Package result defines the benchmark's stamped result file and the
// order statistics that the benchmark and the compare tool share, so
// both sides of a comparison summarize runs the same way.
package result

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Schema identifies the result file format.
const Schema = "gtpin-bench-result/1"

// Stamp records what produced a result. Two results are comparable only
// when every field except Commit and Seed agrees: numbers from different
// machines, toolchains or workload sizes say nothing about a change.
type Stamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Sizes      string `json:"sizes"`
}

// Comparable reports why two stamps may not be compared, or "" when
// they may. Commit and Seed are allowed to differ.
func (s Stamp) Comparable(o Stamp) string {
	a, b := s, o
	a.Commit, b.Commit = "", ""
	a.Seed, b.Seed = 0, 0
	if a == b {
		return ""
	}
	return fmt.Sprintf("stamps differ: %+v vs %+v", a, b)
}

// Metric is one reported number. N is the sample count or ratio base
// behind the value, where there is one.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// File is one run's result file.
type File struct {
	Schema    string            `json:"schema"`
	Stamp     Stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  map[string]int    `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Digests and Exact are the run's outputs: for one seed they must
	// repeat exactly from run to run and from commit to commit.
	Digests map[string]string  `json:"digests,omitempty"`
	Exact   map[string]float64 `json:"exact,omitempty"`
}

// Read loads and checks a result file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	if f.Attempted < 1 || f.Failed < 0 || f.Failed > f.Attempted {
		return nil, fmt.Errorf("%s: implausible op counts attempted=%d failed=%d", path, f.Attempted, f.Failed)
	}
	for name, m := range f.Metrics {
		if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s has value %v unit %q", path, name, m.Value, m.Unit)
		}
	}
	return &f, nil
}

// Median returns the median of xs (the mean of the middle pair for an
// even count), or NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads read the same here as in any tool
// built on it. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := sorted(xs)
	m := n + 1
	q := func(i int) float64 {
		// Python clamps j and then interpolates (or, at the ends,
		// extrapolates) with the clamped j; so does this.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3), nil
}

// Percentile returns the nearest-rank p-th percentile of xs: the
// smallest value with at least p percent of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// TailPercentile returns the highest whole percentile that still has at
// least ten of n samples above its nearest-rank position, or -1 when n
// is too small for any. A tail above it would rest on fewer than ten
// observations.
func TailPercentile(n int) int {
	for p := 99; p >= 0; p-- {
		if n-int(math.Ceil(float64(p)*float64(n)/100)) >= 10 {
			return p
		}
	}
	return -1
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
