package workloads

import (
	"context"
	"errors"
	"testing"
	"time"

	"gtpin/internal/runstate"
)

// TestPoolCancelPrompt: cancelling the pool context while a unit is
// mid-attempt returns promptly — the in-flight attempt is abandoned,
// not waited for — and leaves no terminal journal record for the
// abandoned unit, so a resume re-executes it. This is the service's
// DELETE /jobs/{id} path: a cancel must not block behind a long or hung
// unit.
func TestPoolCancelPrompt(t *testing.T) {
	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	units := poolUnits(t)

	release := make(chan struct{})
	entered := make(chan struct{}, len(units))
	poolTestHook = func(u Unit) {
		entered <- struct{}{}
		<-release
	}
	defer func() {
		poolTestHook = nil
		close(release) // unblock abandoned unit goroutines
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type poolReturn struct {
		outs []Outcome
		err  error
	}
	done := make(chan poolReturn, 1)
	go func() {
		outs, perr := RunPool(ctx, units, PoolOptions{State: state, Workers: 1})
		done <- poolReturn{outs, perr}
	}()

	<-entered // first unit is executing and blocked
	cancel()

	var ret poolReturn
	select {
	case ret = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunPool did not return promptly after cancel; it is waiting for the blocked unit")
	}
	if ret.err != nil && !errors.Is(ret.err, context.Canceled) {
		t.Fatalf("pool-level error: %v", ret.err)
	}
	if !errors.Is(ret.outs[0].Err, context.Canceled) {
		t.Fatalf("abandoned unit settled %v, want context.Canceled", ret.outs[0].Err)
	}
	for i, o := range ret.outs {
		if o.Artifact != nil {
			t.Fatalf("unit %d produced an artifact after cancel", i)
		}
		if o.Err != nil && !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("unit %d settled %v, want context.Canceled or undispatched", i, o.Err)
		}
	}

	// No terminal records: every unit must be resumable, including the
	// one whose attempt was abandoned mid-flight.
	rec, err := runstate.Recover(state.Path + "/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Completed()); n != 0 {
		t.Fatalf("%d units journaled completed after cancel", n)
	}
	if n := len(rec.Failed()); n != 0 {
		t.Fatalf("%d units journaled failed after cancel (cancellation is not a unit failure)", n)
	}
	if _, inflight := rec.InFlight()[units[0].Key()]; !inflight {
		t.Fatalf("abandoned unit %s not left in-flight for resume", units[0].Key())
	}
}
