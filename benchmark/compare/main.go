// Command compare decides from two sets of benchmark result files — runs
// of the parent commit and of a change, written with --out — whether the
// change regressed or improved each workload's end-to-end metrics:
//
//	go run ./compare [-spec ../BENCHMARK.json] parent/*.json -- change/*.json
//
// It refuses to compare results whose stamps differ in anything but the
// commit and the seed, and pairs runs by seed, so both sides must have
// run the same seeds.
//
// For each workload it first judges what the runs did. It is a
// regression when the change side failed more ops than the parent, when
// any change run reported incorrect output, or when a change run's
// outputs — its output digests and its exact values, such as the
// selection error — differ from the parent run of the same seed.
//
// Then, for each metric, it prints each side's median and quartiles and
// a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - gain: the change wins at least nine tenths of the pairs (ties count
//     for neither) and the medians differ by more than the parent's
//     interquartile range — unless the change failed more operations;
//   - unresolved: neither, and the parent's own spread is wider than the
//     bound, so "unchanged" cannot be claimed;
//   - unchanged: otherwise.
//
// Per-layer metrics from traced runs are listed for information. The
// exit status is 1 when anything regressed and 2 when the inputs could
// not be compared.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"gtpin/benchmark/result"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "benchmark definition with the metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, change, err := splitSides(fs.Args())
	if err != nil {
		return fail(err)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readAll(parent)
	if err != nil {
		return fail(err)
	}
	b, err := readAll(change)
	if err != nil {
		return fail(err)
	}
	regressions, err := compare(sp, a, b, stdout)
	if err != nil {
		return fail(err)
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func splitSides(args []string) (parent, change []string, err error) {
	for i, a := range args {
		if a == "--" {
			parent, change = args[:i], args[i+1:]
			if len(parent) == 0 || len(change) == 0 {
				break
			}
			return parent, change, nil
		}
	}
	return nil, nil, errors.New("usage: compare [-spec BENCHMARK.json] PARENT.json... -- CHANGE.json...")
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func readAll(paths []string) ([]*result.File, error) {
	out := make([]*result.File, 0, len(paths))
	for _, p := range paths {
		f, err := result.Read(p)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// groupKey identifies one workload's untraced or traced runs.
type groupKey struct {
	workload string
	trace    bool
}

// compare prints the verdict table and returns how many metrics regressed.
func compare(sp *spec, a, b []*result.File, w io.Writer) (int, error) {
	if err := sameCommit(a); err != nil {
		return 0, fmt.Errorf("parent side: %w", err)
	}
	if err := sameCommit(b); err != nil {
		return 0, fmt.Errorf("change side: %w", err)
	}
	ga, gb := groupBy(a), groupBy(b)
	var keys []groupKey
	for k := range ga {
		if _, ok := gb[k]; !ok {
			return 0, fmt.Errorf("%s (trace %v) has runs only on the parent side", k.workload, k.trace)
		}
		keys = append(keys, k)
	}
	for k := range gb {
		if _, ok := ga[k]; !ok {
			return 0, fmt.Errorf("%s (trace %v) has runs only on the change side", k.workload, k.trace)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	regressions := 0
	var differ []string
	for _, k := range keys {
		ra, rb := ga[k], gb[k]
		if err := paired(ra, rb); err != nil {
			return 0, fmt.Errorf("%s: %w", k.workload, err)
		}
		moreFailures := failures(rb) > failures(ra)
		outs, diffs := outcomes(ra, rb)
		for _, o := range outs {
			verdict := "unchanged"
			if o.regressed {
				verdict = "regression"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t\t%s\n", k.workload, o.name, o.parent, o.change, verdict)
		}
		for _, d := range diffs {
			differ = append(differ, fmt.Sprintf("%s (trace %v) %s", k.workload, k.trace, d))
		}
		metrics := sp.EndToEnd
		if k.trace {
			metrics = sp.PerLayer
		}
		for _, m := range metrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) != len(ra) || len(vb) != len(rb) {
				return 0, fmt.Errorf("%s: metric %s missing from some runs", k.workload, m.Name)
			}
			if k.trace && allZero(va) && allZero(vb) {
				continue // a layer this workload does not cross
			}
			v, err := judge(va, vb, m, !k.trace)
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", k.workload, m.Name, err)
			}
			if v.verdict == "gain" && moreFailures {
				v.verdict = "unchanged (gain void: more failed ops)"
			}
			if v.verdict == "regression" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				k.workload, m.Name, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2], v.changePct, v.wins, len(va), v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	for _, d := range differ {
		fmt.Fprintln(w, "outputs differ:", d)
	}
	return regressions, nil
}

// outcome is one judgement of what the runs did, as opposed to how fast.
type outcome struct {
	name           string
	parent, change string
	regressed      bool
}

// outcomes judges a workload's paired runs by their failed ops, their
// correctness and their outputs, and describes each seed whose outputs
// differ between the sides.
func outcomes(a, b []*result.File) ([]outcome, []string) {
	var differ []string
	for i := range a {
		if why := sameOutputs(a[i], b[i]); why != "" {
			differ = append(differ, fmt.Sprintf("seed %d: %s", a[i].Stamp.Seed, why))
		}
	}
	fa, fb := failures(a), failures(b)
	ia, ib := incorrect(a), incorrect(b)
	return []outcome{
		{"failed ops", fmt.Sprint(fa), fmt.Sprint(fb), fb > fa},
		{"incorrect runs", fmt.Sprint(ia), fmt.Sprint(ib), ib > 0},
		{"seeds with other outputs", "", fmt.Sprintf("%d of %d", len(differ), len(a)), len(differ) > 0},
	}, differ
}

// sameOutputs describes the first output in which two runs of one seed
// differ, or returns "" when their digests and exact values all agree.
func sameOutputs(a, b *result.File) string {
	for _, k := range unionKeys(a.Digests, b.Digests) {
		if a.Digests[k] != b.Digests[k] {
			return fmt.Sprintf("digest %s: %q vs %q", k, a.Digests[k], b.Digests[k])
		}
	}
	for _, k := range unionKeys(a.Exact, b.Exact) {
		x, okA := a.Exact[k]
		y, okB := b.Exact[k]
		if x != y || okA != okB {
			return fmt.Sprintf("%s: %v vs %v", k, x, y)
		}
	}
	return ""
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func incorrect(fs []*result.File) int {
	n := 0
	for _, f := range fs {
		if !f.Correct {
			n++
		}
	}
	return n
}

// judgement is one metric's comparison.
type judgement struct {
	a, b      [3]float64 // q1, median, q3
	changePct float64    // relative change of the median, in percent
	wins      int
	verdict   string
}

// judge applies the bound and the paired-win rule to one metric. Runs
// are paired by index; bounded says whether the bound applies (per-layer
// metrics have none and are only described).
func judge(a, b []float64, m metricSpec, bounded bool) (judgement, error) {
	var j judgement
	var err error
	if j.a[0], j.a[1], j.a[2], err = result.Quartiles(a); err != nil {
		return j, err
	}
	if j.b[0], j.b[1], j.b[2], err = result.Quartiles(b); err != nil {
		return j, err
	}
	sign := 1.0 // +1 when higher is better
	if m.Better == "lower" {
		sign = -1
	}
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			j.wins++
		}
	}
	medA, medB := j.a[1], j.b[1]
	j.changePct = 100 * (medB - medA) / math.Abs(medA)
	worse := -sign * (medB - medA) / math.Abs(medA) // > 0 when the change is worse
	iqrA := j.a[2] - j.a[0]
	gain := float64(j.wins) >= 0.9*float64(len(a)) && math.Abs(medB-medA) > iqrA && worse < 0
	switch {
	case !bounded:
		j.verdict = "info"
		if gain {
			j.verdict = "info: better"
		}
	case worse > m.Bound:
		j.verdict = "regression"
	case gain:
		j.verdict = "gain"
	case iqrA/math.Abs(medA) > m.Bound && !allBetter(a, b, sign):
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j, nil
}

// allBetter reports whether every change run beats every parent run.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func groupBy(fs []*result.File) map[groupKey][]*result.File {
	g := make(map[groupKey][]*result.File)
	for _, f := range fs {
		k := groupKey{f.Stamp.Workload, f.Stamp.Trace}
		g[k] = append(g[k], f)
	}
	for _, rs := range g {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Stamp.Seed < rs[j].Stamp.Seed })
	}
	return g
}

// paired checks that both sides ran the same seeds on comparable stamps.
func paired(a, b []*result.File) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d parent runs but %d change runs", len(a), len(b))
	}
	if len(a) < 2 {
		return errors.New("need at least 2 runs per side for quartiles")
	}
	for i := range a {
		if a[i].Stamp.Seed != b[i].Stamp.Seed {
			return fmt.Errorf("seeds differ: parent run %d has seed %d, change run %d has seed %d", i, a[i].Stamp.Seed, i, b[i].Stamp.Seed)
		}
	}
	for _, f := range append(append([]*result.File(nil), a...), b...) {
		if why := a[0].Stamp.Comparable(f.Stamp); why != "" {
			return errors.New(why)
		}
	}
	return nil
}

func sameCommit(fs []*result.File) error {
	for _, f := range fs {
		if f.Stamp.Commit != fs[0].Stamp.Commit {
			return fmt.Errorf("results from commits %s and %s", fs[0].Stamp.Commit, f.Stamp.Commit)
		}
	}
	return nil
}

func values(fs []*result.File, name string) []float64 {
	var out []float64
	for _, f := range fs {
		if m, ok := f.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

func failures(fs []*result.File) int {
	n := 0
	for _, f := range fs {
		n += f.Failed
	}
	return n
}
