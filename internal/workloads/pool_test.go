package workloads

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/runstate"
)

// poolUnits builds the tiny-scale sweep the pool tests run: the chaos
// roster on the default device, one trial, no fault injection.
func poolUnits(t testing.TB) []Unit {
	t.Helper()
	units := make([]Unit, 0, len(chaosApps))
	for _, name := range chaosApps {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1})
	}
	return units
}

// encodeArtifact marshals with a fatal on error.
func encodeArtifact(t testing.TB, a *Artifact) []byte {
	t.Helper()
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPoolMatchesDirectRun: a pool run with no state dir produces, for
// every unit, the byte-identical artifact a direct pipeline run yields.
func TestPoolMatchesDirectRun(t *testing.T) {
	units := poolUnits(t)
	outs, err := RunPool(context.Background(), units, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Artifact == nil {
			t.Fatalf("unit %s: %v", units[i].Spec.Name, o.Err)
		}
		if o.Resumed || o.Result == nil || o.Attempts != 1 {
			t.Fatalf("unit %s: unexpected outcome shape %+v", units[i].Spec.Name, o)
		}
		res, derr := runPipeline(units[i], nil)
		if derr != nil {
			t.Fatal(derr)
		}
		if !bytes.Equal(encodeArtifact(t, o.Artifact), encodeArtifact(t, NewArtifact(res))) {
			t.Errorf("unit %s: pool artifact differs from direct run", units[i].Spec.Name)
		}
	}
}

// TestArtifactRoundTrip: encode → decode → rebuild profile preserves
// every aggregate and re-encodes to identical bytes (the property that
// makes resumed reports byte-identical).
func TestArtifactRoundTrip(t *testing.T) {
	u := poolUnits(t)[0]
	res, err := runPipeline(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact(res)
	data := encodeArtifact(t, art)
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, encodeArtifact(t, back)) {
		t.Fatal("artifact did not round-trip to identical bytes")
	}
	p, err := back.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Aggregate() != res.Profile.Aggregate() {
		t.Fatalf("rebuilt profile aggregate diverged:\n got %+v\nwant %+v", p.Aggregate(), res.Profile.Aggregate())
	}
	if p.NumBlocks() != res.Profile.NumBlocks() {
		t.Fatalf("rebuilt block space %d != %d", p.NumBlocks(), res.Profile.NumBlocks())
	}
	k1, s1, o1 := res.Tracer.BreakdownPct()
	k2, s2, o2 := back.BreakdownPct()
	if k1 != k2 || s1 != s2 || o1 != o2 {
		t.Fatalf("breakdown diverged: (%v %v %v) != (%v %v %v)", k2, s2, o2, k1, s1, o1)
	}
}

// TestPoolPanicRestart: a worker panic on the first attempt is
// recovered, the unit restarted within its budget, and the final
// artifact is indistinguishable from an undisturbed run.
func TestPoolPanicRestart(t *testing.T) {
	units := poolUnits(t)
	target := units[1].Key()
	poolTestHook = func(u Unit, attempt int) {
		if u.Key() == target && attempt == 0 {
			panic("injected worker panic")
		}
	}
	defer func() { poolTestHook = nil }()

	outs, err := RunPool(context.Background(), units, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("unit %s failed: %v", units[i].Spec.Name, o.Err)
		}
	}
	hit := outs[1]
	if hit.Attempts != 2 {
		t.Fatalf("panicked unit: attempts=%d, want 2", hit.Attempts)
	}
	res, err := runPipeline(units[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArtifact(t, hit.Artifact), encodeArtifact(t, NewArtifact(res))) {
		t.Error("restarted unit's artifact differs from an undisturbed run")
	}
}

// TestPoolPanicBudgetExhausted: a unit that panics on every attempt
// settles as a typed failure wrapping faults.ErrWorkerPanic — journaled
// with its class — and never aborts the rest of the sweep.
func TestPoolPanicBudgetExhausted(t *testing.T) {
	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	units := poolUnits(t)
	target := units[0].Key()
	poolTestHook = func(u Unit, attempt int) {
		if u.Key() == target {
			panic("always panics")
		}
	}
	defer func() { poolTestHook = nil }()

	outs, err := RunPool(context.Background(), units, PoolOptions{State: state})
	if err != nil {
		t.Fatal(err)
	}
	bad := outs[0]
	if !errors.Is(bad.Err, faults.ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", bad.Err)
	}
	if bad.Attempts != maxRestarts+1 {
		t.Fatalf("attempts = %d, want %d (budget %d restarts)", bad.Attempts, maxRestarts+1, maxRestarts)
	}
	if !strings.Contains(bad.Err.Error(), "always panics") {
		t.Fatalf("panic value lost from error: %v", bad.Err)
	}
	for _, o := range outs[1:] {
		if o.Err != nil {
			t.Fatalf("healthy unit dragged down: %v", o.Err)
		}
	}
	rec, rerr := runstate.Recover(state.Path + "/journal.jsonl")
	if rerr != nil {
		t.Fatal(rerr)
	}
	f := rec.Failed()
	if r, ok := f[target]; !ok || r.Class != faults.ErrWorkerPanic.Error() || r.Attempt != maxRestarts+1 {
		t.Fatalf("journal failure record = %+v, want class %q", f[target], faults.ErrWorkerPanic.Error())
	}
	if len(rec.Completed()) != len(units)-1 {
		t.Fatalf("journal completed %d units, want %d", len(rec.Completed()), len(units)-1)
	}
}

// TestPoolReturnsStateIOErrors: a state dir that cannot be written is
// the pool's error, joined in unit order, as it is a fleet's. Every
// unit still settles, each carrying the failure in its outcome.
func TestPoolReturnsStateIOErrors(t *testing.T) {
	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	if err := state.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	units := poolUnits(t)
	outs, err := RunPool(context.Background(), units, PoolOptions{State: state})
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("RunPool error = %v, want the journal's %v", err, os.ErrClosed)
	}
	if n := strings.Count(err.Error(), os.ErrClosed.Error()); n != len(units) {
		t.Fatalf("pool error names %d closed-journal failures, want %d: %v", n, len(units), err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, os.ErrClosed) {
			t.Errorf("unit %s: Err = %v, want the journal's %v", units[i].Spec.Name, o.Err, os.ErrClosed)
		}
	}
}
