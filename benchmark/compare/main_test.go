package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gtpin/benchmark/result"
)

var opsSpec = metricSpec{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.1}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same runs", tight, tight, opsSpec, "unchanged"},
		{"every pair faster, beyond the spread", tight, scaled(tight, 1.05), opsSpec, "gain"},
		{"slower by more than the bound", tight, scaled(tight, 0.85), opsSpec, "regression"},
		{"slower within the bound", tight, scaled(tight, 0.95), opsSpec, "unchanged"},
		{"lower is better", tight, scaled(tight, 0.9), metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}, "gain"},
		{"spread wider than the bound", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, opsSpec, "unresolved"},
		{"no bound on layers", tight, scaled(tight, 0.5), metricSpec{Name: "x", Better: "higher"}, "info"},
	}
	for _, c := range cases {
		bounded := c.m.Bound > 0
		j, err := judge(c.a, c.b, c.m, bounded)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if j.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, j.verdict, c.want, j)
		}
	}
}

func TestWinsNeedNineTenthsOfPairs(t *testing.T) {
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	b := []float64{120, 120, 120, 120, 120, 120, 120, 120, 100, 100} // 8 wins, 2 ties
	j, err := judge(a, b, opsSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	if j.wins != 8 || j.verdict == "gain" {
		t.Errorf("8 of 10 pairs won: wins=%d verdict=%q, want no gain", j.wins, j.verdict)
	}
}

func writeResult(t *testing.T, dir, name string, st result.Stamp, ops float64, failed int) string {
	t.Helper()
	return writeFile(t, dir, name, newResult(st, ops, failed))
}

func newResult(st result.Stamp, ops float64, failed int) result.File {
	return result.File{
		Schema: result.Schema, Stamp: st, Correct: true, Attempted: 10, Failed: failed,
		Metrics: map[string]result.Metric{"ops_per_s": {Value: ops, Unit: "ops/s"}},
		Digests: map[string]string{"select": "d"},
		Exact:   map[string]float64{"selection.subset_error_pct": 1.25},
	}
}

func writeFile(t *testing.T, dir, name string, f result.File) string {
	t.Helper()
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end": [{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}], "per_layer": []}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return specPath
}

func stamp(commit string, seed int64) result.Stamp {
	return result.Stamp{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go", Commit: commit, Workload: "select", Seed: seed, Seconds: 20, Sizes: "s"}
}

// TestRunJudgesOutcomes: at equal speed, a change whose runs fail more
// ops, report incorrect output, or produce other outputs than the parent
// on the same seed is a regression.
func TestRunJudgesOutcomes(t *testing.T) {
	cases := []struct {
		name   string
		modify func(*result.File)
		want   string // the line that must report the regression
	}{
		{"identical", func(*result.File) {}, ""},
		{"more failed ops", func(f *result.File) { f.Failed = 1 }, "failed ops"},
		{"incorrect output", func(f *result.File) { f.Correct = false }, "incorrect runs"},
		{"other digest", func(f *result.File) { f.Digests["select"] = "e" }, "seeds with other outputs"},
		{"other exact value", func(f *result.File) { f.Exact["selection.subset_error_pct"] = 1.5 }, "seeds with other outputs"},
		{"exact value missing", func(f *result.File) { f.Exact = nil }, "seeds with other outputs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var parent, change []string
			for seed := int64(1); seed <= 3; seed++ {
				parent = append(parent, writeFile(t, dir, fmt.Sprintf("p%d.json", seed), newResult(stamp("p", seed), 100, 0)))
				f := newResult(stamp("c", seed), 100, 0)
				if seed == 2 {
					c.modify(&f)
				}
				change = append(change, writeFile(t, dir, fmt.Sprintf("c%d.json", seed), f))
			}
			args := append(append(append([]string{"-spec", writeSpec(t, dir)}, parent...), "--"), change...)
			var out, errOut bytes.Buffer
			code := run(args, &out, &errOut)
			if c.want == "" {
				if code != 0 || strings.Contains(out.String(), "regression") {
					t.Errorf("exit %d, output\n%s%s", code, out.String(), errOut.String())
				}
				return
			}
			regressed := false
			for _, line := range strings.Split(out.String(), "\n") {
				regressed = regressed || strings.Contains(line, c.want) && strings.HasSuffix(line, "regression")
			}
			if code != 1 || !regressed {
				t.Errorf("exit %d, want 1 with %q a regression; output\n%s%s", code, c.want, out.String(), errOut.String())
			}
		})
	}
}

func TestRunComparesAndRefuses(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpec(t, dir)
	var parent, change []string
	for seed := int64(1); seed <= 4; seed++ {
		parent = append(parent, writeResult(t, dir, "p"+string(rune('0'+seed))+".json", stamp("p", seed), 100+float64(seed), 0))
		change = append(change, writeResult(t, dir, "c"+string(rune('0'+seed))+".json", stamp("c", seed), 70+float64(seed), 0))
	}
	args := append(append(append([]string{"-spec", specPath}, parent...), "--"), change...)
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regression") {
		t.Errorf("30%% slower change: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}

	// A change side from another machine is refused.
	other := stamp("c", 1)
	other.CPUModel = "other"
	change[0] = writeResult(t, dir, "c1.json", other, 101, 0)
	args = append(append(append([]string{"-spec", specPath}, parent...), "--"), change...)
	out.Reset()
	errOut.Reset()
	if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "stamps differ") {
		t.Errorf("mixed machines: exit %d, stderr %q", code, errOut.String())
	}

	// Unpaired seeds are refused.
	change[0] = writeResult(t, dir, "c1.json", stamp("c", 9), 101, 0)
	args = append(append(append([]string{"-spec", specPath}, parent...), "--"), change...)
	errOut.Reset()
	if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "seeds differ") {
		t.Errorf("unpaired seeds: exit %d, stderr %q", code, errOut.String())
	}
}
