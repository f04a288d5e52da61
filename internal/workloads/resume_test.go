package workloads

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/profile"
	"gtpin/internal/runstate"
)

// sweepFingerprint renders the sweep's final aggregate state — per-unit
// artifact bytes in unit order — so interrupted-then-resumed runs can be
// compared byte-for-byte against uninterrupted ones. Any report a
// harness derives from these artifacts is a pure function of these
// bytes.
func sweepFingerprint(t *testing.T, outs []Outcome) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("unit %s did not settle cleanly: %v", o.Unit.Key(), o.Err)
		}
		data, err := o.Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", o.Unit.Key(), runstate.Digest(data))
		b.Write(data)
	}
	return b.Bytes()
}

// chaosUnits builds the crash-recovery sweep: the chaos roster with
// fault injection on, so resumed runs must also reproduce the injector's
// deterministic fault absorption.
func chaosUnits(t *testing.T) []Unit {
	t.Helper()
	units := poolUnits(t)
	for i := range units {
		units[i].Faults = &FaultOptions{Rates: faults.Uniform(0.01), Seed: 12345}
	}
	return units
}

// runUninterrupted produces the reference: a fault-free-of-crashes
// single-shot sweep with its own state dir.
func runUninterrupted(t *testing.T, units []Unit) ([]Outcome, *runstate.Dir) {
	t.Helper()
	state, err := runstate.OpenDir(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { state.Close() })
	outs, err := RunPool(context.Background(), units, PoolOptions{State: state})
	if err != nil {
		t.Fatal(err)
	}
	return outs, state
}

// TestResumeAfterCancellation kills the sweep via context cancellation
// at every unit boundary, resumes it, and asserts the resumed final
// state is byte-identical to the uninterrupted run — completed units
// skipped, the rest re-executed.
func TestResumeAfterCancellation(t *testing.T) {
	units := chaosUnits(t)
	refOuts, refState := runUninterrupted(t, units)
	want := sweepFingerprint(t, refOuts)

	for kill := 0; kill < len(units); kill++ {
		kill := kill
		t.Run(fmt.Sprintf("kill-after-%d", kill), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			state, err := runstate.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Phase 1: cancel once `kill` units have settled. Units
			// already dispatched run to completion (par's contract);
			// undispatched ones never start — the crash shape.
			ctx, cancel := context.WithCancel(context.Background())
			var settled atomic.Int64
			outs1, _ := RunPool(ctx, units, PoolOptions{
				State: state,
				OnOutcome: func(Outcome) {
					if settled.Add(1) >= int64(kill) {
						cancel()
					}
				},
			})
			cancel()
			state.Close()
			done := 0
			for _, o := range outs1 {
				if o.Artifact != nil {
					done++
				}
			}

			// Phase 2: reopen the state dir and resume.
			state2, err := runstate.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer state2.Close()
			if got := len(state2.Recovered.Completed()); got != done {
				t.Fatalf("journal records %d completed units, phase 1 produced %d", got, done)
			}
			outs2, err := RunPool(context.Background(), units, PoolOptions{State: state2, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			resumed := 0
			for _, o := range outs2 {
				if o.Resumed {
					resumed++
				}
			}
			if resumed != done {
				t.Errorf("resume skipped %d units, want %d (journaled complete)", resumed, done)
			}
			if got := sweepFingerprint(t, outs2); !bytes.Equal(got, want) {
				t.Errorf("resumed sweep diverged from uninterrupted run\n got %d bytes\nwant %d bytes", len(got), len(want))
			}
			// The on-disk artifacts must match the reference run's too.
			for _, u := range units {
				key := u.Key()
				a, err1 := os.ReadFile(refState.UnitFile(key, ".json"))
				b, err2 := os.ReadFile(state2.UnitFile(key, ".json"))
				if err1 != nil || err2 != nil {
					t.Fatalf("artifact files unreadable: %v / %v", err1, err2)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("unit %s: resumed artifact file differs from uninterrupted run", key)
				}
			}
		})
	}
}

// TestResumeAfterWorkerPanic simulates a sweep brought down by a
// persistently panicking unit (restart budget exhausted, typed failure
// journaled), then resumes after the "fix": the failed unit re-executes,
// completed ones are skipped, and the final state is byte-identical to a
// run that never panicked.
func TestResumeAfterWorkerPanic(t *testing.T) {
	units := chaosUnits(t)
	refOuts, _ := runUninterrupted(t, units)
	want := sweepFingerprint(t, refOuts)

	dir := filepath.Join(t.TempDir(), "state")
	state, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	target := units[2].Key()
	poolTestHook = func(u Unit, attempt int) {
		if u.Key() == target {
			panic("crash in worker")
		}
	}
	outs1, err := RunPool(context.Background(), units, PoolOptions{State: state})
	poolTestHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if outs1[2].Err == nil {
		t.Fatal("panicking unit reported success")
	}
	state.Close()

	state2, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	if len(state2.Recovered.Failed()) != 1 || len(state2.Recovered.Completed()) != len(units)-1 {
		t.Fatalf("journal state: %d failed / %d completed, want 1 / %d",
			len(state2.Recovered.Failed()), len(state2.Recovered.Completed()), len(units)-1)
	}
	outs2, err := RunPool(context.Background(), units, PoolOptions{State: state2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if outs2[2].Resumed {
		t.Error("failed unit was skipped instead of re-executed")
	}
	for i, o := range outs2 {
		if i != 2 && !o.Resumed {
			t.Errorf("completed unit %s re-executed on resume", o.Unit.Key())
		}
	}
	if got := sweepFingerprint(t, outs2); !bytes.Equal(got, want) {
		t.Error("post-panic resume diverged from the clean run")
	}
}

// TestResumeReExecutesInFlight: a unit journaled started but never
// finished (the process died mid-unit) is re-executed on resume, and a
// torn journal tail from the crash is absorbed.
func TestResumeReExecutesInFlight(t *testing.T) {
	units := chaosUnits(t)
	refOuts, _ := runUninterrupted(t, units)
	want := sweepFingerprint(t, refOuts)

	dir := filepath.Join(t.TempDir(), "state")
	state, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Complete only the first unit, then simulate dying mid-way through
	// the second: a started record with no terminal, plus a torn tail.
	if _, err := RunPool(context.Background(), units[:1], PoolOptions{State: state}); err != nil {
		t.Fatal(err)
	}
	if err := state.Journal.Started(units[1].Key(), 0); err != nil {
		t.Fatal(err)
	}
	state.Close()
	jpath := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"c":99,"r":{"seq":4,"status":"comp`) // torn mid-append
	f.Close()

	state2, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	if !state2.Recovered.Torn {
		t.Fatal("torn tail not detected on resume")
	}
	if inf := state2.Recovered.InFlight(); len(inf) != 1 {
		t.Fatalf("in-flight units = %+v, want exactly the mid-crash one", inf)
	}
	outs, err := RunPool(context.Background(), units, PoolOptions{State: state2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Resumed || outs[1].Resumed || outs[2].Resumed {
		t.Fatalf("resume shape wrong: resumed=[%v %v %v], want [true false false]",
			outs[0].Resumed, outs[1].Resumed, outs[2].Resumed)
	}
	if got := sweepFingerprint(t, outs); !bytes.Equal(got, want) {
		t.Error("in-flight re-execution diverged from the clean run")
	}
}

// TestResumeRejectsTamperedArtifact: if a journaled-complete unit's
// artifact no longer matches its digest, resume re-executes the unit
// rather than surfacing the corrupt bytes.
func TestResumeRejectsTamperedArtifact(t *testing.T) {
	units := chaosUnits(t)[:2]
	dir := filepath.Join(t.TempDir(), "state")
	state, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunPool(context.Background(), units, PoolOptions{State: state})
	if err != nil {
		t.Fatal(err)
	}
	want := sweepFingerprint(t, outs)
	state.Close()

	// Corrupt unit 0's artifact on disk.
	p := (&runstate.Dir{Path: dir}).UnitFile(units[0].Key(), ".json")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	state2, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	outs2, err := RunPool(context.Background(), units, PoolOptions{State: state2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if outs2[0].Resumed {
		t.Error("tampered artifact was trusted")
	}
	if !outs2[1].Resumed {
		t.Error("intact artifact was not reused")
	}
	if got := sweepFingerprint(t, outs2); !bytes.Equal(got, want) {
		t.Error("re-execution after tampering diverged")
	}
}

// TestPoolJournalConcurrency exercises concurrent journaling from many
// workers under the race detector: every unit's lifecycle must land in
// the journal with strictly increasing sequence numbers.
func TestPoolJournalConcurrency(t *testing.T) {
	spec, err := ByName(chaosApps[0])
	if err != nil {
		t.Fatal(err)
	}
	var units []Unit
	for trial := int64(1); trial <= 8; trial++ {
		units = append(units, Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: trial})
	}
	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	outs, err := RunPool(context.Background(), units, PoolOptions{
		State: state,
		OnOutcome: func(o Outcome) {
			mu.Lock()
			seen[o.Unit.Key()] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	state.Close()
	if len(seen) != len(units) {
		t.Fatalf("OnOutcome observed %d units, want %d", len(seen), len(units))
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	rec, err := runstate.Recover(filepath.Join(state.Path, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Completed()) != len(units) || len(rec.Dropped) != 0 {
		t.Fatalf("journal: %d completed, %d dropped", len(rec.Completed()), len(rec.Dropped))
	}
}

// TestAdopt is the resume rule: a unit is adopted only with a
// completion record, an artifact that passes the record's digest check,
// and bytes that decode; the record's attempt count comes back.
func TestAdopt(t *testing.T) {
	sd, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	good := encodeArtifact(t, &Artifact{App: "a", Invocations: []profile.Invocation{{Instrs: 1}}})
	for key, data := range map[string][]byte{"good": good, "stale": good, "garbled": []byte(`{"app":""}`)} {
		if err := sd.Commit(key, data, nil, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := runstate.Recover(filepath.Join(sd.Path, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	completed := rec.Completed()
	completed["missing"] = runstate.Record{Status: runstate.StatusCompleted, Unit: "missing", Digest: runstate.Digest(good), Attempt: 2}
	stale := completed["stale"]
	stale.Digest = runstate.Digest([]byte("other bytes"))
	completed["stale"] = stale

	for _, tc := range []struct {
		key string
		ok  bool
	}{
		{"unrecorded", false}, // no completion record
		{"missing", false},    // no artifact file
		{"stale", false},      // digest mismatch
		{"garbled", false},    // verified but undecodable
		{"good", true},
	} {
		art, attempts, ok := Adopt(sd, completed, tc.key)
		if ok != tc.ok || (art != nil) != tc.ok {
			t.Errorf("%s: Adopt = (%v, %d, %v), want ok %v", tc.key, art, attempts, ok, tc.ok)
			continue
		}
		if ok && (attempts != 2 || !bytes.Equal(encodeArtifact(t, art), good)) {
			t.Errorf("%s: adopted %d attempts and %s, want 2 and %s", tc.key, attempts, encodeArtifact(t, art), good)
		}
	}
}
