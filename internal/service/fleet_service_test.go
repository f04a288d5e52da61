package service

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gtpin/internal/fleet"
	"gtpin/internal/workloads"
)

// TestLatencyTrackerMedian: the ring keeps the newest 64 samples,
// ignores non-positive ones, and reports a stable median.
func TestLatencyTrackerMedian(t *testing.T) {
	var lt latencyTracker
	if lt.median() != 0 {
		t.Fatal("empty tracker reported a median")
	}
	lt.observe(0)
	lt.observe(-5)
	if lt.median() != 0 {
		t.Fatal("non-positive samples were recorded")
	}
	for _, ns := range []int64{1e9, 3e9, 2e9} {
		lt.observe(ns)
	}
	if got := lt.median(); got != 2*time.Second {
		t.Fatalf("median = %v, want 2s", got)
	}
	// Overflow the ring with 10ms samples: the old seconds-scale samples
	// must age out.
	for i := 0; i < 64; i++ {
		lt.observe(10e6)
	}
	if got := lt.median(); got != 10*time.Millisecond {
		t.Fatalf("median after ring wrap = %v, want 10ms", got)
	}
}

// TestRetryAfterHint: the shed hint scales with observed latency and
// queue depth, clamps to [1,120], and falls back to the fixed default
// before any sample exists.
func TestRetryAfterHint(t *testing.T) {
	s := &Server{queue: newQueue(64)}
	if got := s.retryAfterHint(); got != retryAfterSeconds {
		t.Fatalf("hint with no samples = %q, want fallback %q", got, retryAfterSeconds)
	}

	s.lat.observe(int64(2 * time.Second))
	if got := s.retryAfterHint(); got != "2" {
		t.Fatalf("hint with 2s median, empty queue = %q, want \"2\"", got)
	}

	for i := 0; i < 3; i++ {
		if err := s.queue.push(newJob(fmt.Sprintf("q%d", i), "", JobSpec{}, "")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.retryAfterHint(); got != "8" {
		t.Fatalf("hint with 2s median, depth 3 = %q, want \"8\" (2s x 4)", got)
	}

	s2 := &Server{queue: newQueue(4)}
	s2.lat.observe(int64(500 * time.Millisecond))
	if got := s2.retryAfterHint(); got != "1" {
		t.Fatalf("sub-second hint = %q, want floor \"1\"", got)
	}
	s3 := &Server{queue: newQueue(4)}
	s3.lat.observe(int64(400 * time.Second))
	if got := s3.retryAfterHint(); got != "120" {
		t.Fatalf("huge hint = %q, want cap \"120\"", got)
	}
}

// TestRetryAfterAdaptiveOn429: once units have flowed, a shed response
// carries the adaptive hint, not the fixed constant.
func TestRetryAfterAdaptiveOn429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, Config{JobWorkers: 1, QueueCap: 1})
	s.runPool = blockingRunner(release)
	s.lat.observe(int64(7 * time.Second))

	// One job runs (blocked), one fills the queue, the third sheds.
	for i := 0; i < 2; i++ {
		r := postJob(t, s, fmt.Sprintf(`{"id":"ra%d","kind":"characterize","apps":["cb-gaussian-buffer"]}`, i), "")
		r.Body.Close()
	}
	waitState(t, mustJob(t, s, "ra0"), StateRunning)
	resp := postJob(t, s, `{"kind":"characterize","apps":["cb-gaussian-buffer"]}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429", resp.Status)
	}
	// Median 7s, one queued ahead: 7 x 2 = 14.
	if got := resp.Header.Get("Retry-After"); got != "14" {
		t.Fatalf("Retry-After = %q, want \"14\"", got)
	}
}

// TestLatencyFedFromOutcomes: completed unit wall times reach the
// tracker through the job's OnOutcome path; resumed and failed units do
// not.
func TestLatencyFedFromOutcomes(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, QueueCap: 4})
	s.runPool = func(ctx context.Context, units []workloads.Unit, opts workloads.PoolOptions) ([]workloads.Outcome, error) {
		outs := make([]workloads.Outcome, len(units))
		for i, u := range units {
			outs[i] = workloads.Outcome{
				Unit: u, Artifact: &workloads.Artifact{App: u.Spec.Name},
				WallNs: int64(3 * time.Second),
			}
			if opts.OnOutcome != nil {
				opts.OnOutcome(outs[i])
			}
		}
		return outs, nil
	}
	r := postJob(t, s, tinySpec, "")
	r.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "t1")); st != StateDone {
		t.Fatalf("job settled %s, want done", st)
	}
	if got := s.lat.median(); got != 3*time.Second {
		t.Fatalf("tracker median = %v, want 3s", got)
	}
}

// TestFleetJobUsesFleetRunner: a spec with "fleet": N routes execution
// through the fleet coordinator with N workers and the job's own fleet
// scratch dir, while a plain spec never touches it.
func TestFleetJobUsesFleetRunner(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, QueueCap: 4})
	var gotPool workloads.PoolOptions
	var gotOpts fleet.Options
	calls := 0
	s.runFleet = func(ctx context.Context, units []workloads.Unit, pool workloads.PoolOptions, opts fleet.Options) ([]workloads.Outcome, error) {
		calls++
		gotPool, gotOpts = pool, opts
		outs := make([]workloads.Outcome, len(units))
		for i, u := range units {
			outs[i] = workloads.Outcome{Unit: u, Artifact: &workloads.Artifact{App: u.Spec.Name}}
			if pool.OnOutcome != nil {
				pool.OnOutcome(outs[i])
			}
		}
		return outs, nil
	}

	r := postJob(t, s, `{"id":"f1","kind":"characterize","apps":["cb-gaussian-buffer"],"fleet":3}`, "")
	r.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "f1")); st != StateDone {
		t.Fatalf("fleet job settled %s, want done", st)
	}
	if calls != 1 {
		t.Fatalf("fleet runner called %d times, want 1", calls)
	}
	if gotOpts.Workers != 3 {
		t.Fatalf("fleet Workers = %d, want 3", gotOpts.Workers)
	}
	if want := filepath.Join(s.jobDir("f1"), "fleet"); gotOpts.Dir != want {
		t.Fatalf("fleet Dir = %q, want %q", gotOpts.Dir, want)
	}
	if gotPool.State == nil {
		t.Fatal("fleet run not wired to the job's state dir")
	}

	// A non-fleet job must stay on the in-process pool.
	r = postJob(t, s, tinySpec, "")
	r.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "t1")); st != StateDone {
		t.Fatalf("plain job settled %s, want done", st)
	}
	if calls != 1 {
		t.Fatalf("fleet runner called %d times after a plain job, want still 1", calls)
	}
}

// TestJobSpecFleetBounds: out-of-range fleet sizes are rejected at
// validation.
func TestJobSpecFleetBounds(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := postJob(t, s, `{"kind":"characterize","fleet":33}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet=33 got %s, want 400", resp.Status)
	}
	sp := JobSpec{Kind: KindCharacterize, Fleet: -1}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("fleet=-1 validated: %v", err)
	}
	sp.Fleet = 32
	if err := sp.Validate(); err != nil {
		t.Fatalf("fleet=32 rejected: %v", err)
	}
}
