package workloads

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gtpin/internal/faults"
	"gtpin/internal/runstate"
)

// hangUnits returns a two-unit sweep whose second unit hangs forever
// (the test hook blocks until the test ends), the shape the timeout
// machinery exists for.
func hangUnits(t *testing.T) ([]Unit, string) {
	t.Helper()
	units := poolUnits(t)[:2]
	hung := units[1].Key()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	poolTestHook = func(u Unit) {
		if u.Key() == hung {
			<-release
		}
	}
	t.Cleanup(func() { poolTestHook = nil })
	return units, hung
}

// TestUnitTimeoutAbandonsHungUnit: a hung unit settles with a
// faults.ErrUnitTimeout failure within the per-unit budget while
// healthy units complete normally, and the failure is journaled as a
// typed terminal record.
func TestUnitTimeoutAbandonsHungUnit(t *testing.T) {
	units, hung := hangUnits(t)
	state, err := runstate.OpenDir(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()

	// The budget must fit the healthy tiny unit, which takes about
	// 50-110 ms under -race on two cores; the hung unit waits it out.
	outs, err := RunPool(context.Background(), units, PoolOptions{
		State:       state,
		UnitTimeout: 2 * time.Second,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[0].Artifact == nil {
		t.Fatalf("healthy unit failed: %v", outs[0].Err)
	}
	if !errors.Is(outs[1].Err, faults.ErrUnitTimeout) {
		t.Fatalf("hung unit error = %v, want ErrUnitTimeout", outs[1].Err)
	}
	if faults.Kind(outs[1].Err) != "unit timeout" {
		t.Fatalf("Kind = %q, want %q", faults.Kind(outs[1].Err), "unit timeout")
	}

	// The timeout is a typed terminal failure in the journal: a resume
	// re-executes the unit (completion is the only accepted terminal
	// state) and failure tables can classify it.
	state.Close()
	state2, err := runstate.OpenDir(state.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	rec, ok := state2.Recovered.Failed()[hung]
	if !ok {
		t.Fatalf("hung unit not journaled failed; journal: %+v", state2.Recovered.Records)
	}
	if rec.Class != "unit timeout" {
		t.Fatalf("journaled class %q, want %q", rec.Class, "unit timeout")
	}
}

// TestSweepDeadlineAbandonsHungUnit: with only a context deadline (the
// -timeout flag's shape), a hung unit is abandoned when the deadline
// expires — the process does not hang — and the error carries both the
// taxonomy sentinel and context.DeadlineExceeded, so the journal leaves
// the unit in-flight for a resume with a larger budget.
func TestSweepDeadlineAbandonsHungUnit(t *testing.T) {
	units, hung := hangUnits(t)
	state, err := runstate.OpenDir(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var outs []Outcome
	go func() {
		defer close(done)
		outs, _ = RunPool(ctx, units, PoolOptions{State: state, Workers: 2})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunPool hung past the sweep deadline")
	}

	if !errors.Is(outs[1].Err, faults.ErrUnitTimeout) || !errors.Is(outs[1].Err, context.DeadlineExceeded) {
		t.Fatalf("hung unit error = %v, want ErrUnitTimeout wrapping DeadlineExceeded", outs[1].Err)
	}
	if !strings.Contains(outs[1].Err.Error(), "sweep deadline") {
		t.Fatalf("error text %q does not name the sweep deadline", outs[1].Err)
	}

	// Deadline abandonment is crash-shaped, not a terminal failure: the
	// unit stays in-flight so a resume re-executes it.
	state.Close()
	state2, err := runstate.OpenDir(state.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer state2.Close()
	if _, ok := state2.Recovered.InFlight()[hung]; !ok {
		t.Fatalf("deadline-abandoned unit not in-flight; journal: %+v", state2.Recovered.Records)
	}
}

// TestUnitTimeoutDisabledKeepsInlinePath: without a timeout or a
// deadline, a one-worker pool runs the unit on the calling goroutine —
// the condition under which the benchmark's per-op thread CPU time
// counts the unit's work.
func TestUnitTimeoutDisabledKeepsInlinePath(t *testing.T) {
	caller := goroutineID()
	var ran string
	poolTestHook = func(Unit) { ran = goroutineID() }
	t.Cleanup(func() { poolTestHook = nil })

	units := poolUnits(t)[:1]
	outs, err := RunPool(context.Background(), units, PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Fatalf("outcome %+v", outs[0])
	}
	if ran != caller {
		t.Fatalf("unit ran on goroutine %s, want the caller's, %s", ran, caller)
	}
}

// goroutineID returns the calling goroutine's number from the header
// of its stack trace, "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
