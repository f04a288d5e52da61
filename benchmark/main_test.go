package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/faults"
	"gtpin/internal/workloads"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, which the
// compare tool reads for directions and bounds, naming exactly the
// workloads and metrics this program emits.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s %s: better %q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "layer", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "layer", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "layer", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// The children cover [10, 60) and [90, 100) of the op: 60 of 100.
	if self["op"] != 40 {
		t.Errorf("op self = %d, want 40", self["op"])
	}
	if self["layer"] != 25+30+30 {
		t.Errorf("layer self = %d, want 85", self["layer"])
	}
	if self["inner"] != 5 {
		t.Errorf("inner self = %d, want 5", self["inner"])
	}
	// Two workers over a wall of 100: the layers explain (85+5)/200.
	if got := coverage(self, []string{"layer", "inner"}, 2, 100); got != 0.45 {
		t.Errorf("coverage = %v, want 0.45", got)
	}
	if got := coverage(self, []string{"layer"}, 0, 100); got != 0 {
		t.Errorf("coverage with no workers = %v, want 0", got)
	}
}

func TestPassSummaryPoolsOpsAndTakesMedianRate(t *testing.T) {
	ramp := func(from float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = from + float64(i)
		}
		return out
	}
	// Passes 2 and 5 are disturbed and slower; they count like any other
	// pass, and every op's latency is pooled.
	p := &phase{passes: []pass{
		{rate: 100, cpuMs: ramp(1, 100)},  // 1..100
		{rate: 70, cpuMs: ramp(101, 100)}, // 101..200
		{rate: 90, cpuMs: ramp(201, 100)}, // 201..300
		{rate: 95, cpuMs: ramp(301, 100)}, // 301..400
		{rate: 60, cpuMs: ramp(401, 100)}, // 401..500
		{rate: 99, cpuMs: ramp(501, 100)}, // 501..600
		{rate: 98, cpuMs: ramp(601, 100)}, // 601..700
		{rate: 97, cpuMs: ramp(701, 100)}, // 701..800
		{rate: 96, cpuMs: ramp(801, 100)}, // 801..900
		{rate: 94, cpuMs: ramp(901, 100)}, // 901..1000
	}}
	rate, p50, p90, n := p.summary()
	if rate != 95.5 || p50 != 500 || p90 != 900 || n != 1000 {
		t.Errorf("summary() = %v %v %v n=%d, want 95.5 500 900 n=1000", rate, p50, p90, n)
	}
	// The p90 rests on 100 samples beyond it; p99 is the highest
	// percentile that still has ten.
	if got := result.TailPercentile(n); got != 99 {
		t.Errorf("TailPercentile(%d) = %d, want 99", n, got)
	}
}

// TestHostScaleUndoesASlowHost: a host on which every reference kernel
// takes twice its nominal time is twice as slow, and measured times are
// scaled down by 2^hostExponent; medians keep one outlier from counting.
func TestHostScaleUndoesASlowHost(t *testing.T) {
	var h hostSpeed
	for k, rk := range refKernels {
		h.samples[k] = []time.Duration{2 * rk.nominal, 2 * rk.nominal, 9 * rk.nominal}
	}
	if got := h.slowness(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowness = %v, want 2", got)
	}
	if got, want := h.scale(), math.Pow(2, -hostExponent); math.Abs(got-want) > 1e-9 {
		t.Errorf("scale = %v, want %v", got, want)
	}
	var real hostSpeed
	real.sample()
	if s := real.slowness(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("measured slowness %v", s)
	}
}

func TestRecorderIsANoOpWhenUntraced(t *testing.T) {
	var rec *recorder
	sp := rec.open("x", "req", 0)
	if sp.id() != 0 {
		t.Error("untraced span has an id")
	}
	sp.end()
	rec = newRecorder()
	root := rec.open("root", "req", 0)
	child := rec.open("child", "req", root.id())
	child.end()
	root.end()
	got := rec.snapshot()
	if len(got) != 2 || got[0].Parent != root.id() || got[0].End < got[0].Start {
		t.Errorf("spans = %+v", got)
	}
}

// TestOpenLoopChargesStallToLaterRequests: request 0 holds the only
// connection for 200ms. The generator must keep firing on schedule, and
// the requests queued behind the stall must be timed from their due
// times, so the stall shows in their latency.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const interval = 20 * time.Millisecond
	var conn sync.Mutex
	lat := make([]time.Duration, 5)
	lags := openLoop(time.Now(), interval, len(lat), func(i int, due time.Time) {
		conn.Lock()
		if i == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		conn.Unlock()
		lat[i] = time.Since(due)
	})
	for i, l := range lags {
		if l > 15*time.Millisecond {
			t.Errorf("request %d fired %v late: the generator waited on the stall", i, l)
		}
	}
	// Request 1 was due 20ms in and waited for the 200ms stall.
	if lat[1] < 150*time.Millisecond {
		t.Errorf("request 1 latency %v does not include the stall", lat[1])
	}
	if lat[4] < 100*time.Millisecond {
		t.Errorf("request 4 latency %v does not include the stall", lat[4])
	}
}

func TestTallyClassifiesFailures(t *testing.T) {
	tl := newTally()
	tl.op("a", nil)
	tl.op("b", fmt.Errorf("submit: %w", faults.ErrQueueFull))
	tl.op("c", fmt.Errorf("job x: %w", fmt.Errorf("replay: %w", faults.ErrSnippetDiverged)))
	tl.op("d", fmt.Errorf("unit u: digest differs: %w", errMismatch))
	tl.op("e", errors.New("plain"))
	// A design point whose replays diverged on two windows.
	tl.op("f", errors.Join(fmt.Errorf("window 3: %w", faults.ErrSnippetDiverged), fmt.Errorf("window 5: %w", faults.ErrSnippetDiverged)))
	if tl.attempted != 6 || tl.failed != 5 {
		t.Errorf("attempted %d failed %d, want 6 and 5", tl.attempted, tl.failed)
	}
	want := map[string]int{"queue full": 1, "snippet replay diverged": 2, "output mismatch": 1, "unclassified permanent": 1}
	if fmt.Sprint(tl.classes) != fmt.Sprint(want) {
		t.Errorf("classes %v, want %v", tl.classes, want)
	}
	if len(tl.mismatches) != 1 || !strings.HasPrefix(tl.mismatches[0], "d: ") {
		t.Errorf("mismatches %q, want the one named d", tl.mismatches)
	}
}

func TestResultLineSchema(t *testing.T) {
	f := &result.File{
		Correct: true, Attempted: 7, Failed: 1, Failures: map[string]int{"queue full": 1},
		Metrics: map[string]result.Metric{
			"ops_per_s": {Value: 12.25, Unit: "ops/s", N: 3, Note: "median of 3 passes"},
			"setup_s":   {Value: 0.5, Unit: "s"},
		},
	}
	var out bytes.Buffer
	if err := printResult(&out, f); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "ops_per_s 12.25 ops/s n=3 (median of 3 passes)" || lines[1] != "setup_s 0.5 s" {
		t.Errorf("metric lines %q", lines[:2])
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if keys := sortedKeys(last); fmt.Sprint(keys) != "[attempted correct failed metrics]" {
		t.Errorf("result keys %v", keys)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if keys := sortedKeys(m); fmt.Sprint(keys) != "[unit value]" {
			t.Errorf("metric %s keys %v", name, keys)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWorkloadsEmitEveryMetric runs each workload at tiny scale, untraced
// and traced, and checks that it emits every metric BENCHMARK.json names,
// with no failed op and no output mismatch, and that both runs of the
// seed report the same outputs.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	tiny := sizes{Scale: workloads.ScaleTiny, Apps: 3, Designs: 2, Jobs: 20, Rate: 40}
	budgets := map[string]time.Duration{
		"characterize": 400 * time.Millisecond,
		"select":       400 * time.Millisecond,
		"design-sweep": 400 * time.Millisecond,
		"service":      time.Second,
	}
	exact := map[string][]string{
		"select":       {"selection.subset_error_pct", "selection.subset_speedup_x"},
		"design-sweep": {"detsim.extrap_error_pct"},
	}
	for _, name := range workloadNames {
		var outputs []string
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{Workload: name, Seed: 2, Budget: budgets[name], Trace: traced, Dir: t.TempDir(), Size: tiny}
				f, spans, err := execute(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if len(spans) == 0 {
						t.Error("traced run recorded no spans")
					}
				}
				for _, d := range want {
					m, ok := f.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, present %v", d.name, m, ok)
					}
				}
				if len(f.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(f.Metrics), len(want))
				}
				if !f.Correct || f.Failed != 0 || f.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d failures=%v", f.Correct, f.Attempted, f.Failed, f.Failures)
				}
				if !traced && (f.Metrics["ops_per_cpu_s"].Value <= 0 || f.Metrics["setup_s"].Value <= 0) {
					t.Errorf("end-to-end metrics must not be 0: %+v", f.Metrics)
				}
				if traced && f.Metrics["trace.coverage"].Value <= 0 {
					t.Errorf("trace.coverage %v", f.Metrics["trace.coverage"])
				}
				if got := sortedKeys(f.Exact); fmt.Sprint(got) != fmt.Sprint(exact[name]) {
					t.Errorf("exact values %v, want %v", got, exact[name])
				}
				outputs = append(outputs, fmt.Sprint(f.Digests, f.Exact))
			})
		}
		if len(outputs) == 2 && outputs[0] != outputs[1] {
			t.Errorf("%s: untraced and traced runs of one seed differ:\n%s\n%s", name, outputs[0], outputs[1])
		}
	}
}
