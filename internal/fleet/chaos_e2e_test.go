package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"gtpin/internal/faults"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// chaosSeed lets the CI matrix pin the fault schedule (make fleet-chaos
// runs three fixed seeds); unset, the suite uses seed 1.
func chaosSeed(t *testing.T) int64 {
	raw := os.Getenv("GTPIN_FLEET_SEED")
	if raw == "" {
		return 1
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("GTPIN_FLEET_SEED=%q: %v", raw, err)
	}
	return seed
}

// encodeAll canonicalizes a sweep's outcomes for byte comparison.
func encodeAll(t *testing.T, outs []workloads.Outcome) [][]byte {
	t.Helper()
	enc := make([][]byte, len(outs))
	for i, o := range outs {
		if o.Err != nil || o.Artifact == nil {
			t.Fatalf("unit %d (%s): %v", i, o.Unit.Key(), o.Err)
		}
		data, err := o.Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = data
	}
	return enc
}

// TestFleetByteIdenticalUnderChaos is the acceptance gate: a 4-worker
// fleet with a seeded fault schedule — at least two workers SIGKILLed
// mid-unit, at least one frozen while holding its flock — must merge to
// outcomes byte-identical to an unfailed single-process sweep, with no
// unit lost, duplicated, or corrupted.
func TestFleetByteIdenticalUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const fleetWorkers = 4
	units := fleetUnits(t, 4) // 12 units: every initial worker sees several leases
	sched := RandomSchedule(chaosSeed(t), fleetWorkers)
	// Clamp the fire counters so every scheduled fault actually triggers:
	// a worker told to die on its 3rd lease might only ever be handed
	// two. Firing on the 1st or 2nd keeps the kill/hang mix and its
	// seed-dependence while making the fault count deterministic.
	for ord, k := range sched.KillAfter {
		if k > 1 {
			sched.KillAfter[ord] = 1
		}
	}
	for ord, h := range sched.HangAfter {
		if h > 1 {
			sched.HangAfter[ord] = 1
		}
	}
	chaosEnv, err := sched.Encode()
	if err != nil {
		t.Fatal(err)
	}

	baseline, err := workloads.RunPool(context.Background(), units, workloads.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, baseline)

	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	var stats Stats
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	outs, err := Run(ctx, units, workloads.PoolOptions{State: state}, Options{
		Workers: fleetWorkers,
		// Each process-level fault costs its in-flight unit one lease, so
		// an innocent unit can at worst burn Failures() leases to chaos
		// that had nothing to do with it; quarantine only past that.
		PoisonThreshold: sched.Failures() + 1,
		MaxRespawns:     2 * sched.Failures(),
		HeartbeatTTL:    2 * time.Second,
		PollInterval:    10 * time.Millisecond,
		WorkerEnv:       []string{EnvChaos + "=" + chaosEnv},
		Stats:           &stats,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run failed (stats %+v): %v", stats, err)
	}
	got := encodeAll(t, outs)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("unit %s: fleet artifact differs from single-process baseline", units[i].Key())
		}
	}

	if stats.WorkersLost < sched.Failures() {
		t.Errorf("WorkersLost = %d, want >= %d (every scheduled fault should fire)", stats.WorkersLost, sched.Failures())
	}
	if stats.LeasesExpired < sched.Failures() || stats.Redispatches < sched.Failures() {
		t.Errorf("stats %+v: expected >= %d expiries and re-dispatches", stats, sched.Failures())
	}
	if stats.Quarantined != 0 {
		t.Errorf("Quarantined = %d: chaos without poison units must not quarantine", stats.Quarantined)
	}

	// The merged state dir must be a valid single-process-equivalent
	// journal: every unit completed, every artifact digest-verified.
	rec, err := runstate.Recover(state.Path + "/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	completed := rec.Completed()
	if len(completed) != len(units) {
		t.Fatalf("merged journal completed %d units, want %d", len(completed), len(units))
	}
	for _, u := range units {
		r, ok := completed[u.Key()]
		if !ok {
			t.Fatalf("unit %s missing from merged journal", u.Key())
		}
		if _, err := state.ReadArtifact(u.Key(), r.Digest); err != nil {
			t.Fatalf("merged artifact for %s unreadable: %v", u.Key(), err)
		}
	}
}

// TestFleetPoisonQuarantine: a unit that SIGKILLs every worker that
// touches it must be quarantined as a typed faults.ErrPoisonUnit after
// PoisonThreshold lost leases, while every other unit completes
// byte-identically.
func TestFleetPoisonQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	units := fleetUnits(t, 1) // 3 units
	poisonKey := units[1].Key()
	chaosEnv, err := Schedule{Poison: []string{poisonKey}}.Encode()
	if err != nil {
		t.Fatal(err)
	}

	baseline, err := workloads.RunPool(context.Background(), units, workloads.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var stats Stats
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs, err := Run(ctx, units, workloads.PoolOptions{}, Options{
		Workers:         2,
		PoisonThreshold: 2,
		MaxRespawns:     6,
		HeartbeatTTL:    2 * time.Second,
		PollInterval:    10 * time.Millisecond,
		WorkerEnv:       []string{EnvChaos + "=" + chaosEnv},
		Stats:           &stats,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run failed (stats %+v): %v", stats, err)
	}

	bad := outs[1]
	if !errors.Is(bad.Err, faults.ErrPoisonUnit) {
		t.Fatalf("poison unit err = %v, want ErrPoisonUnit", bad.Err)
	}
	if faults.Kind(bad.Err) != faults.Kind(faults.ErrPoisonUnit) {
		t.Fatalf("poison unit classified %q", faults.Kind(bad.Err))
	}
	if stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (stats %+v)", stats.Quarantined, stats)
	}
	if stats.WorkersLost < 2 {
		t.Fatalf("WorkersLost = %d: quarantine at threshold 2 needs two kills", stats.WorkersLost)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil || outs[i].Artifact == nil {
			t.Fatalf("healthy unit %d dragged down: %v", i, outs[i].Err)
		}
		wantData, err := baseline[i].Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		gotData, err := outs[i].Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Errorf("healthy unit %d artifact differs from baseline", i)
		}
	}
}

// TestFleetResumeAdopts: a second fleet run over a state dir the first
// run filled must adopt every unit from the journal without spawning a
// single worker — the resume contract, across the process topology.
func TestFleetResumeAdopts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	units := fleetUnits(t, 1)
	dir := t.TempDir()
	state, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), units, workloads.PoolOptions{State: state}, Options{
		Workers: 2, HeartbeatTTL: 2 * time.Second, PollInterval: 10 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := state.Close(); err != nil {
		t.Fatal(err)
	}

	state2, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	var stats Stats
	second, err := Run(context.Background(), units, workloads.PoolOptions{State: state2, Resume: true}, Options{
		Workers: 2, Stats: &stats, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != len(units) || stats.WorkersSpawned != 0 {
		t.Fatalf("stats %+v: want %d adopted, 0 spawned", stats, len(units))
	}
	for i := range units {
		if !second[i].Resumed {
			t.Fatalf("unit %d not marked resumed", i)
		}
		a, err := first[i].Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := second[i].Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("unit %d: resumed artifact differs from original", i)
		}
	}
}
