package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gtpin/internal/faults"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// scriptedRunner drives executeJob with a per-unit script while
// honoring the pool contract the real RunPool provides: outcomes settle
// in unit order, OnOutcome fires per settled unit, and cancellation
// stops dispatch (undispatched units keep zero-value outcomes, i.e.
// "skipped").
func scriptedRunner(script func(u workloads.Unit) workloads.Outcome) runner {
	return func(ctx context.Context, units []workloads.Unit, opts workloads.PoolOptions) ([]workloads.Outcome, error) {
		outs := make([]workloads.Outcome, len(units))
		for i, u := range units {
			outs[i].Unit = u
			if ctx.Err() != nil {
				continue // undispatched
			}
			outs[i] = script(u)
			outs[i].Unit = u
			if opts.OnOutcome != nil {
				opts.OnOutcome(outs[i])
			}
		}
		return outs, ctx.Err()
	}
}

func transientErr() error {
	return fmt.Errorf("scripted: %w", faults.ErrSendFault)
}

// TestPermanentFailureNotRetried: a unit runs once whatever its
// failure's class — a transient fault repeats on a rerun exactly as a
// permanent one does — and the job degrades to partial with each
// failure classified.
func TestPermanentFailureNotRetried(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	s := newTestServer(t, Config{JobWorkers: 1})
	s.runPool = scriptedRunner(func(u workloads.Unit) workloads.Outcome {
		mu.Lock()
		runs[u.Key()]++
		mu.Unlock()
		switch u.TrialSeed {
		case 1:
			return workloads.Outcome{Err: fmt.Errorf("scripted: %w", faults.ErrBadBinary)}
		case 2:
			return workloads.Outcome{Err: transientErr()}
		}
		return workloads.Outcome{Artifact: &workloads.Artifact{App: u.Spec.Name}}
	})

	r := postJob(t, s, `{"id":"p1","kind":"characterize","apps":["cb-gaussian-buffer"],"trials":3}`, "")
	r.Body.Close()
	j := mustJob(t, s, "p1")
	if st := waitTerminal(t, j); st != StatePartial {
		t.Fatalf("job settled %s, want partial", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != 3 {
		t.Fatalf("%d distinct units ran, want 3", len(runs))
	}
	for key, n := range runs {
		if n != 1 {
			t.Errorf("unit %s ran %d times, want 1", key, n)
		}
	}
	var rf resultFile
	readJSONFile(t, filepath.Join(s.jobDir("p1"), "result.json"), &rf)
	want := []resultUnit{
		{Status: "failed", Class: "bad kernel binary"},
		{Status: "failed", Class: faults.Kind(faults.ErrSendFault)},
		{Status: "completed"},
	}
	if len(rf.Units) != len(want) {
		t.Fatalf("result has %d unit rows, want %d", len(rf.Units), len(want))
	}
	for i, w := range want {
		if got := rf.Units[i]; got.Status != w.Status || got.Class != w.Class {
			t.Errorf("unit row %d = %+v, want status %s class %q", i, got, w.Status, w.Class)
		}
	}
}

// TestBreakerDegradesToPartial: consecutive failures trip the per-job
// breaker; the remaining units are skipped, not executed, and the job
// settles partial.
func TestBreakerDegradesToPartial(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, BreakerThreshold: 3})
	s.runPool = scriptedRunner(func(u workloads.Unit) workloads.Outcome {
		if u.TrialSeed <= 2 {
			return workloads.Outcome{Artifact: &workloads.Artifact{App: u.Spec.Name}}
		}
		return workloads.Outcome{Err: transientErr()}
	})

	r := postJob(t, s, `{"id":"b1","kind":"characterize","apps":["cb-gaussian-buffer"],"trials":8}`, "")
	r.Body.Close()
	j := mustJob(t, s, "b1")
	if st := waitTerminal(t, j); st != StatePartial {
		t.Fatalf("job settled %s (%s), want partial", st, j.View().Error)
	}
	v := j.View()
	if !v.BreakerTripped {
		t.Fatalf("breaker not recorded as tripped: %+v", v.Progress)
	}
	if v.UnitsDone != 2 || v.UnitsFailed != 3 || v.UnitsSkipped != 3 {
		t.Fatalf("progress = %+v", v.Progress)
	}
	var rf resultFile
	readJSONFile(t, filepath.Join(s.jobDir("b1"), "result.json"), &rf)
	skipped := 0
	for _, u := range rf.Units {
		if u.Status == "skipped" {
			skipped++
		}
	}
	if skipped != 3 {
		t.Fatalf("result records %d skipped units, want 3", skipped)
	}
}

// TestChaosInjectorDeterministic runs the real pool under the real
// fault injector at rate 1: every execution of a unit fails the same
// way, so each unit runs once — its journal holds one started and one
// terminal record — and two independent runs of the same spec settle
// identically, including their result.json bytes.
func TestChaosInjectorDeterministic(t *testing.T) {
	const spec = `{"id":"x1","kind":"characterize","apps":["cb-gaussian-buffer"],"scale":"tiny","fault_rate":1,"fault_seed":7}`

	run := func() (State, Progress, []byte) {
		s := newTestServer(t, Config{JobWorkers: 1, UnitWorkers: 1, BreakerThreshold: -1})
		r := postJob(t, s, spec, "")
		r.Body.Close()
		if r.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %s", r.Status)
		}
		j := mustJob(t, s, "x1")
		st := waitTerminal(t, j)
		data, err := os.ReadFile(filepath.Join(s.jobDir("x1"), "result.json"))
		if err != nil {
			t.Fatalf("read result.json: %v", err)
		}
		rec, err := runstate.Recover(filepath.Join(s.jobDir("x1"), "state", "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		started, terminal := map[string]int{}, map[string]int{}
		for _, r := range rec.Records {
			if r.Status == runstate.StatusStarted {
				started[r.Unit]++
			} else {
				terminal[r.Unit]++
			}
		}
		if len(started) != j.View().UnitsTotal || len(terminal) != len(started) {
			t.Fatalf("journal covers %d started / %d settled units, want %d each", len(started), len(terminal), j.View().UnitsTotal)
		}
		for unit, n := range started {
			if n != 1 || terminal[unit] != 1 {
				t.Fatalf("unit %s journaled %d started / %d terminal records, want 1 / 1", unit, n, terminal[unit])
			}
		}
		return st, j.View().Progress, data
	}
	st1, p1, res1 := run()
	st2, p2, res2 := run()
	if st1 != st2 || p1 != p2 {
		t.Fatalf("chaos runs diverged: %s %+v vs %s %+v", st1, p1, st2, p2)
	}
	if string(res1) != string(res2) {
		t.Fatalf("chaos result.json diverged:\n%s\nvs\n%s", res1, res2)
	}
	if st1 == StateDone {
		t.Fatalf("fault rate 1 produced a clean run; injector not engaged")
	}
	var rf resultFile
	if err := jsonUnmarshal(res1, &rf); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	for _, u := range rf.Units {
		if u.Status == "failed" && u.Class == "" {
			t.Fatalf("failed unit missing fault class: %+v", u)
		}
	}
}
