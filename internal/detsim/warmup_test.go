package detsim_test

import (
	"bytes"
	"testing"

	"gtpin/internal/detsim"
)

// TestWarmupPreservesStateAndCounts: warmup invocations execute
// functionally (state preserved), are counted separately, and contribute
// no detailed time.
func TestWarmupPreservesStateAndCounts(t *testing.T) {
	rec, n, want := record(t, 81, 9)
	if n < 6 {
		t.Skip("schedule too short")
	}
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := detsim.Range{From: 4, To: 6, Warmup: 3}
	rep, err := sim.Run(rec, []detsim.Range{r})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(surfaceBytes(sim.Buffer(1)), want) {
		t.Fatal("warmup perturbed architectural results")
	}
	if rep.Detailed != 2 {
		t.Errorf("detailed = %d, want 2", rep.Detailed)
	}
	if rep.Warmed != 3 {
		t.Errorf("warmed = %d, want 3", rep.Warmed)
	}
	if rep.Detailed+rep.Warmed+rep.FastForwarded != n {
		t.Errorf("invocation accounting: %d+%d+%d != %d",
			rep.Detailed, rep.Warmed, rep.FastForwarded, n)
	}
}

// TestWarmupHeatsCaches: the detailed region after a warmup sees warmer
// caches (no fewer hits) than without warmup.
func TestWarmupHeatsCaches(t *testing.T) {
	rec, n, _ := record(t, 82, 9)
	if n < 6 {
		t.Skip("schedule too short")
	}
	run := func(warmup int) float64 {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(rec, []detsim.Range{{From: n - 2, To: n, Warmup: warmup}})
		if err != nil {
			t.Fatal(err)
		}
		total := rep.Cache[0]
		return total.HitRate()
	}
	cold := run(0)
	warm := run(n - 2) // warm through everything preceding the region
	if warm < cold-1e-9 {
		t.Errorf("warmup lowered the hit rate: cold %.3f vs warm %.3f", cold, warm)
	}
}

// TestWarmupClampsAtProgramStart: Warmup larger than From warms only the
// invocations that exist.
func TestWarmupClampsAtProgramStart(t *testing.T) {
	rec, n, _ := record(t, 83, 5)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(rec, []detsim.Range{{From: 1, To: 2, Warmup: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warmed != 1 {
		t.Errorf("warmed = %d, want 1", rep.Warmed)
	}
	_ = n
}
