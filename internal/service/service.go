// Package service is the fault-tolerant profiling daemon behind
// cmd/gtpind: an HTTP/JSON front end that admits characterize, repro,
// and subsets jobs into a bounded, supervised queue and executes them on
// the existing workloads.RunPool, keeping the process-wide hot caches
// (jit rewrite cache, replay/native memoization) alive across requests.
//
// Robustness is the headline, built from the primitives the earlier
// layers provide rather than re-invented:
//
//   - admission control: a bounded queue that sheds load with HTTP 429 +
//     Retry-After instead of accepting work it would lose (queue.go);
//   - per-job deadlines and context cancellation threaded through the
//     pool, with hung units abandoned via faults.ErrUnitTimeout;
//   - automatic retry of transiently-failed units across passes with
//     capped exponential backoff + deterministic jitter (retry.go),
//     classified by the internal/faults taxonomy;
//   - a per-job circuit breaker that degrades a job to partial results
//     after N consecutive unit failures instead of wedging the queue
//     (breaker.go);
//   - graceful drain on SIGTERM: /readyz flips to not-ready while the
//     listener still serves, admission stops, in-flight jobs finish or
//     stay journaled, obs artifacts are flushed, then the listener
//     closes;
//   - crash-resume: every job owns a runstate state directory (journal +
//     digest-verified artifacts); on restart the daemon rescans job
//     directories and re-executes interrupted jobs to byte-identical
//     artifacts (resume.go), guarded against concurrent CLI runs by the
//     runstate flock claim;
//   - per-tenant policies keyed by API key: fault rate, fault seed, and
//     watchdog budget reuse the deterministic injector so chaos can be
//     dialed per client (tenant.go).
//
// See docs/service.md for the HTTP API and the job lifecycle.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gtpin/internal/fleet"
	"gtpin/internal/obs"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// Defaults for Config fields left zero.
const (
	DefaultQueueCap         = 16
	DefaultJobWorkers       = 2
	DefaultMaxRetryPasses   = 2
	DefaultRetryBase        = 500 * time.Millisecond
	DefaultRetryCap         = 8 * time.Second
	DefaultBreakerThreshold = 5
	DefaultDrainTimeout     = 30 * time.Second
)

// Config parameterizes a Server. The zero value of every field selects
// a production-sane default; StateDir is the only required field.
type Config struct {
	// StateDir is the service root: <dir>/LOCK claims it, <dir>/jobs/
	// holds one directory per job (spec, status, runstate journal,
	// artifacts, result).
	StateDir string
	// QueueCap bounds the admission queue; a full queue sheds
	// submissions with 429 + Retry-After. 0 means DefaultQueueCap.
	QueueCap int
	// JobWorkers is the number of jobs executing concurrently.
	JobWorkers int
	// UnitWorkers is the per-job pool shard count (0 = GOMAXPROCS).
	UnitWorkers int
	// MaxRetryPasses bounds service-level retry of transiently-failed
	// units (in addition to the pool's own virtual-time restarts).
	// Negative disables retry passes; 0 means DefaultMaxRetryPasses.
	MaxRetryPasses int
	// RetryBase/RetryCap shape the capped exponential backoff between
	// retry passes; jitter is deterministic per job (retry.go).
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold trips a job's circuit breaker after this many
	// consecutive unit failures, degrading the job to partial results.
	// Negative disables the breaker; 0 means DefaultBreakerThreshold.
	BreakerThreshold int
	// DrainTimeout bounds how long Drain waits for in-flight jobs
	// before abandoning them to their journals.
	DrainTimeout time.Duration
	// UnitTimeout bounds each unit attempt's wall time (see
	// workloads.PoolOptions.UnitTimeout). 0 disables.
	UnitTimeout time.Duration
	// Tenants maps API keys to policies; nil admits every caller under
	// DefaultPolicy. See tenant.go.
	Tenants *Policies
	// Logf receives one line per lifecycle event; nil logs nothing.
	Logf func(format string, args ...any)
	// DrainHook, when set, runs during Drain after admission has
	// stopped (readyz already serves 503) but before the listener
	// closes — the window in which a load balancer would observe the
	// flip. The smoke harness and tests use it to pin the drain
	// ordering without racing the drain.
	DrainHook func()

	// sleep is the backoff clock, replaceable by tests. nil sleeps on
	// a real timer, honoring ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueCap == 0 {
		out.QueueCap = DefaultQueueCap
	}
	if out.JobWorkers <= 0 {
		out.JobWorkers = DefaultJobWorkers
	}
	switch {
	case out.MaxRetryPasses == 0:
		out.MaxRetryPasses = DefaultMaxRetryPasses
	case out.MaxRetryPasses < 0:
		out.MaxRetryPasses = 0
	}
	if out.RetryBase <= 0 {
		out.RetryBase = DefaultRetryBase
	}
	if out.RetryCap <= 0 {
		out.RetryCap = DefaultRetryCap
	}
	switch {
	case out.BreakerThreshold == 0:
		out.BreakerThreshold = DefaultBreakerThreshold
	case out.BreakerThreshold < 0:
		out.BreakerThreshold = 0
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = DefaultDrainTimeout
	}
	if out.Tenants == nil {
		out.Tenants = OpenPolicies()
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	if out.sleep == nil {
		out.sleep = sleepCtx
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Server is one daemon instance: the job registry, the bounded queue,
// the worker set, and the HTTP listener.
type Server struct {
	cfg  Config
	lock *runstate.DirLock

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission/recovery order, for deterministic listing

	queue    *queue
	runPool  runner      // workloads.RunPool, replaceable by tests
	runFleet fleetRunner // fleet.Run, replaceable by tests
	lat      latencyTracker

	ready    atomic.Bool
	draining atomic.Bool

	jobCtx     context.Context
	cancelJobs context.CancelFunc
	wg         sync.WaitGroup

	httpSrv *http.Server
	lis     net.Listener
}

// New claims cfg.StateDir, recovers interrupted jobs from its journals
// into the queue, and returns a server ready to Start. The flock claim
// means a second daemon (or a CLI sweep pointed at the same root)
// cannot replay the same journals concurrently.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("service: Config.StateDir is required")
	}
	c := cfg.withDefaults()
	if err := os.MkdirAll(filepath.Join(c.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	lock, err := runstate.AcquireDirLock(c.StateDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        c,
		lock:       lock,
		jobs:       make(map[string]*Job),
		queue:      newQueue(c.QueueCap),
		runPool:    workloads.RunPool,
		runFleet:   fleet.Run,
		jobCtx:     ctx,
		cancelJobs: cancel,
	}
	if err := s.recoverJobs(); err != nil {
		cancel()
		lock.Release()
		return nil, err
	}
	return s, nil
}

// Start binds the listener on addr (":0" picks a free port), starts the
// job workers, and flips /readyz to ready. Serving happens on
// background goroutines; Start returns once the listener is bound.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.httpSrv.Serve(lis) }()
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	s.cfg.Logf("gtpind: serving on http://%s/ (state %s, queue cap %d, %d job workers)",
		lis.Addr(), s.cfg.StateDir, s.cfg.QueueCap, s.cfg.JobWorkers)
	return nil
}

// Addr returns the bound listener address ("" before Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// worker drains the queue until it is closed, executing one job at a
// time. A job failure never takes the worker down — executeJob settles
// every error into the job's terminal state.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.executeJob(s.jobCtx, j)
	}
}

// Drain is the SIGTERM path, in strict order: stop admitting (readyz
// flips to not-ready while the listener still serves), let in-flight
// jobs finish — or, past the drain timeout, cancel them so they stay
// journaled for the next start — flush the obs metrics artifact, and
// only then close the listener. Idempotent: the second call waits for
// the first.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
		return nil
	}
	s.ready.Store(false)
	s.cfg.Logf("gtpind: draining: admission stopped, %d job(s) queued, waiting up to %v for in-flight jobs",
		s.queue.depth(), s.cfg.DrainTimeout)
	s.queue.close()
	if s.cfg.DrainHook != nil {
		s.cfg.DrainHook()
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logf("gtpind: drain timeout: abandoning in-flight jobs to their journals")
		s.cancelJobs()
		<-done
	}

	var err error
	if werr := s.flushMetrics(); werr != nil {
		err = werr
	}
	if s.httpSrv != nil {
		if cerr := s.httpSrv.Close(); err == nil {
			err = cerr
		}
	}
	if lerr := s.lock.Release(); err == nil {
		err = lerr
	}
	s.cfg.Logf("gtpind: drained")
	return err
}

// Close hard-stops the server: cancel all jobs, then drain the residue.
// Tests and error paths use it; production exits through Drain.
func (s *Server) Close() error {
	s.cancelJobs()
	return s.Drain()
}

// flushMetrics writes the process metrics snapshot next to the job
// directories, the same artifact the sweep harnesses leave in their
// state dirs.
func (s *Server) flushMetrics() error {
	buf, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal metrics: %w", err)
	}
	buf = append(buf, '\n')
	if err := obs.ValidateMetrics(buf); err != nil {
		return fmt.Errorf("service: refusing to write metrics.json: %w", err)
	}
	return runstate.WriteFileAtomic(filepath.Join(s.cfg.StateDir, "metrics.json"), buf)
}

// register adds a job to the registry; jobDir is its on-disk home.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// reserve registers a new queued job for spec — under the next free
// job-NNNN ID when the spec names none — and reports fresh. When the
// spec's ID is already registered it returns that job instead. The
// lookup and the insert share one lock hold, so concurrent submissions
// can never be handed the same ID.
func (s *Server) reserve(spec JobSpec, tenant string) (j *Job, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.ID == "" {
		spec.ID = s.freshID()
	} else if existing, ok := s.jobs[spec.ID]; ok {
		return existing, false
	}
	j = newJob(spec.ID, tenant, spec, s.jobDir(spec.ID))
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j, true
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// listJobs snapshots the registry in submission order.
func (s *Server) listJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// tenantJobs counts a tenant's non-terminal jobs, for admission quotas.
func (s *Server) tenantJobs(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Tenant == tenant && !j.State().Terminal() {
			n++
		}
	}
	return n
}

// jobDir is the on-disk home of one job.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "jobs", id)
}
