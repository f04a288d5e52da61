package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Regression test for the -min-speedup gate: a degenerate (zero or
// negative) optimized duration used to produce +Inf, which compares
// greater than any threshold and silently passed the gate.
func TestSpeedupRejectsDegenerateTimings(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, opt time.Duration
	}{
		{"zero optimized", time.Second, 0},
		{"negative optimized", time.Second, -time.Millisecond},
		{"zero baseline", 0, time.Second},
		{"both zero", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := speedup(tc.base, tc.opt)
			if err == nil {
				t.Fatalf("speedup(%v, %v) = %v, want error", tc.base, tc.opt, s)
			}
			if s != 0 {
				t.Fatalf("speedup(%v, %v) returned %v with error; want 0", tc.base, tc.opt, s)
			}
		})
	}
}

// The overhead gate compares medians of repeated sweeps; the median must
// shrug off a single outlier rep (the flakiness the reps exist to fix)
// and behave sensibly at the edges.
func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []time.Duration
		want time.Duration
	}{
		{"empty", nil, 0},
		{"single", []time.Duration{7 * time.Second}, 7 * time.Second},
		{"odd ignores outlier", []time.Duration{time.Second, 90 * time.Second, 2 * time.Second}, 2 * time.Second},
		{"even averages middle", []time.Duration{4 * time.Second, time.Second, 2 * time.Second, 3 * time.Second}, 2500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]time.Duration(nil), tc.in...)
			if got := median(in); got != tc.want {
				t.Fatalf("median(%v) = %v, want %v", tc.in, got, tc.want)
			}
			// The caller reuses the slice for the report; median must not
			// reorder it.
			for i := range tc.in {
				if in[i] != tc.in[i] {
					t.Fatalf("median mutated its input: %v -> %v", tc.in, in)
				}
			}
		})
	}
}

func TestSpeedupComputesRatio(t *testing.T) {
	s, err := speedup(4*time.Second, 2*time.Second)
	if err != nil {
		t.Fatalf("speedup: %v", err)
	}
	if math.Abs(s-2.0) > 1e-12 {
		t.Fatalf("speedup = %v, want 2.0", s)
	}
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("speedup = %v, want finite", s)
	}
}

// setFlags sets command-line flags for one test and restores their
// previous values when it ends.
func setFlags(t *testing.T, kv map[string]string) {
	t.Helper()
	for name, v := range kv {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
}

func writeReport(t *testing.T, path string, mips float64) {
	t.Helper()
	data, err := json.Marshal(report{DetsimMIPS: mips})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The detsim gate reads its baseline from -prior, never from the -out
// report the run writes: make bench and make bench-smoke write
// .bench/BENCH_sweep.json, so a regressed run cannot become the baseline
// the next run is gated against.
func TestDetsimGateReadsPriorNotOut(t *testing.T) {
	dir := t.TempDir()
	prior := filepath.Join(dir, "prior.json")
	out := filepath.Join(dir, "out.json")
	writeReport(t, prior, 10)
	writeReport(t, out, 100)
	setFlags(t, map[string]string{
		"prior": prior, "out": out,
		"min-detsim-ratio": "0.9", "require-detsim-prior": "true",
	})

	// 50 MI/s passes against the -prior baseline (floor 9) and would
	// fail against the -out report (floor 90).
	got, err := detsimGate(50)
	if err != nil || got != 10 {
		t.Fatalf("detsimGate(50) = %v, %v; want the -prior baseline 10 and a pass", got, err)
	}
	if _, err := detsimGate(8); err == nil || !strings.Contains(err.Error(), prior) {
		t.Fatalf("detsimGate(8) = %v; want a regression naming %s", err, prior)
	}

	// A missing -prior report disarms the gate even though -out exists,
	// so -require-detsim-prior fails, naming the path it looked for.
	missing := filepath.Join(dir, "missing.json")
	setFlags(t, map[string]string{"prior": missing})
	if _, err := detsimGate(50); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("detsimGate with no -prior report = %v; want an error naming %s", err, missing)
	}
	setFlags(t, map[string]string{"require-detsim-prior": "false"})
	if got, err := detsimGate(50); err != nil || got != 0 {
		t.Fatalf("detsimGate with no -prior report, not required = %v, %v; want a skipped gate", got, err)
	}
}
