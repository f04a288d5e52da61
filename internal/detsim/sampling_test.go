package detsim_test

import (
	"bytes"
	"math"
	"testing"

	"gtpin/internal/detsim"
)

// TestIntraKernelSamplingPreservesState: sampling every 4th channel-group
// for detailed modelling must not change architectural results.
func TestIntraKernelSamplingPreservesState(t *testing.T) {
	rec, n, want := record(t, 71, 7)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(rec, []detsim.Range{{From: 0, To: n, SampleGroups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(surfaceBytes(sim.Buffer(1)), want) {
		t.Fatal("intra-kernel sampling perturbed architectural results")
	}
	if rep.Detailed != n {
		t.Errorf("detailed invocations = %d, want %d", rep.Detailed, n)
	}
}

// TestIntraKernelSamplingExtrapolates: the sampled run's extrapolated
// time tracks the full run's, while doing less cycle-level work.
func TestIntraKernelSamplingExtrapolates(t *testing.T) {
	rec, n, _ := record(t, 72, 7)
	full, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := full.Run(rec, []detsim.Range{{From: 0, To: n}})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sampRep, err := sampled.Run(rec, []detsim.Range{{From: 0, To: n, SampleGroups: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Less cycle-level work: far fewer pipeline/cache events.
	if sampRep.LaneOps >= fullRep.LaneOps {
		t.Errorf("sampled lane ops %d not below full %d", sampRep.LaneOps, fullRep.LaneOps)
	}
	// Extrapolated time within a loose band of the full simulation.
	// (Distortion comes from cache warm-up gaps and group heterogeneity.)
	relErr := math.Abs(sampRep.DetailedTimeNs-fullRep.DetailedTimeNs) / fullRep.DetailedTimeNs
	if relErr > 0.35 {
		t.Errorf("extrapolation error %.1f%% too large (sampled %.0f vs full %.0f ns)",
			100*relErr, sampRep.DetailedTimeNs, fullRep.DetailedTimeNs)
	}
}

// TestSampleEveryGroupIsIdentity: SampleGroups values of 0 and 1 are the
// full detailed simulation.
func TestSampleEveryGroupIsIdentity(t *testing.T) {
	rec, n, _ := record(t, 73, 5)
	run := func(sg int) float64 {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(rec, []detsim.Range{{From: 0, To: n, SampleGroups: sg}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.DetailedTimeNs
	}
	t0, t1 := run(0), run(1)
	if t0 != t1 {
		t.Errorf("SampleGroups 0 vs 1: %f != %f", t0, t1)
	}
}
