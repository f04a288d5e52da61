// Package fleet distributes a characterization sweep across worker
// processes and survives any of them failing.
//
// A single supervised pool (workloads.RunPool) already survives unit
// panics, hangs, and process crashes-with-resume — but one OOM-killed
// or wedged process still stalls the whole sweep until an operator
// intervenes. The fleet closes that gap with a coordinator/worker
// topology built from pieces the repo already trusts:
//
//   - The coordinator (Run) shards the sweep's units across N worker
//     processes. Each worker is handed one unit at a time as a lease:
//     an atomically-written file carrying the unit itself (a
//     workloads.Unit is its own JSON wire form) and a fencing epoch.
//   - Workers are plain re-executions of the current binary
//     (GTPIN_FLEET_WORKER=<dir>, see MaybeWorker). Each owns a private
//     runstate.Dir — flock-fenced, journaled, atomic artifacts — and
//     journals every unit result under the lease's epoch before
//     removing the lease file.
//   - The coordinator watches heartbeats and per-worker journals. A
//     worker that stops heartbeating (SIGKILL, freeze) or blows the
//     lease TTL (hung unit) is killed and its lease re-dispatched
//     under a fresh epoch to a healthy worker; the dead worker's
//     journal is harvested first, so results that became durable
//     before the crash are never re-executed.
//   - The fencing epoch makes late writes harmless: a result journaled
//     under an epoch the coordinator no longer considers leased is
//     counted (faults.ErrStaleWorker) and dropped, never merged.
//   - A unit that destroys PoisonThreshold consecutive workers is
//     quarantined as a typed faults.ErrPoisonUnit failure instead of
//     grinding the fleet down forever.
//
// Merging is deterministic: outcomes settle into unit-index order and
// artifacts are canonical bytes, so the merged report is byte-identical
// to a single-process run at any worker count and under any failure
// schedule — the property the chaos suite asserts. A fleet takes the
// sweep's workloads.PoolOptions as the in-process pool does. A worker
// commits each result to its own state dir, and the coordinator commits
// each harvested result to PoolOptions.State, both through
// runstate.Dir.Commit. A resume adopts through workloads.Adopt, so
// -resume works on a fleet sweep exactly as on a single-process one,
// and either topology resumes the other's journal.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gtpin/internal/workloads"
)

// Defaults for Options fields left zero.
const (
	DefaultHeartbeatTTL    = 5 * time.Second
	DefaultPollInterval    = 25 * time.Millisecond
	DefaultPoisonThreshold = 3
	DefaultMaxRespawns     = 8
	DefaultWorkers         = 2
)

// The coordinator's fixed supervision bounds.
const (
	// leaseTTL bounds how long a single lease may stay outstanding on a
	// heartbeating worker before the coordinator declares the unit hung,
	// kills the worker, and re-dispatches. It is independent of
	// PoolOptions.UnitTimeout, which bounds the unit's execution inside
	// the worker.
	leaseTTL = 2 * time.Minute
	// startupGrace bounds how long a spawned worker may take to produce
	// its first heartbeat.
	startupGrace = 30 * time.Second
)

// Options holds a fleet run's own settings: where it keeps its scratch
// files, how many processes it runs, and how it supervises them. What
// the sweep does with its units is the PoolOptions Run takes.
type Options struct {
	// Dir is the fleet scratch directory (manifest, per-worker state).
	// Empty uses a temp directory removed when Run returns; a fixed Dir
	// is kept for post-mortem inspection.
	Dir string
	// Workers is the number of worker processes; 0 means
	// DefaultWorkers.
	Workers int
	// HeartbeatTTL is how long a ready worker's heartbeat file may stay
	// unchanged before the worker is declared lost. 0 means
	// DefaultHeartbeatTTL.
	HeartbeatTTL time.Duration
	// PollInterval is the coordinator's supervision cadence. 0 means
	// DefaultPollInterval.
	PollInterval time.Duration
	// PoisonThreshold quarantines a unit after it loses this many
	// leases to dead or expired workers. It must exceed the number of
	// unrelated worker crashes a single unit can plausibly be caught in
	// (each crash costs every in-flight unit one lease). 0 means
	// DefaultPoisonThreshold.
	PoisonThreshold int
	// MaxRespawns bounds replacement workers beyond the initial fleet;
	// when the budget is exhausted and no workers remain, Run fails
	// rather than spinning. 0 means DefaultMaxRespawns.
	MaxRespawns int
	// Logf, when set, receives coordinator progress lines (spawns,
	// expiries, re-dispatches, quarantines).
	Logf func(format string, args ...any)
	// Stats, when set, is filled in as the run progresses. Read it only
	// after Run returns.
	Stats *Stats
	// Spawn overrides how worker processes are started — the test seam
	// that lets the suite inject crashing or hanging workers without a
	// real binary. Nil re-executes the current binary as a worker.
	Spawn func(workerDir string) (Process, error)
	// WorkerEnv appends environment entries ("K=V") to spawned workers,
	// e.g. a chaos schedule.
	WorkerEnv []string
}

// Stats counts what the coordinator observed during one run.
type Stats struct {
	WorkersSpawned int // processes started, respawns included
	WorkersLost    int // processes that exited, froze, or were killed before STOP
	LeasesGranted  int // lease files written
	LeasesExpired  int // leases lost to dead, frozen, or hung workers
	Redispatches   int // grants that retried a previously-lost unit
	Quarantined    int // units settled as faults.ErrPoisonUnit
	StaleResults   int // journaled results refused by the fencing epoch
	Adopted        int // units satisfied from PoolOptions.State's journal without dispatch
}

// Run executes units across a fleet of worker processes and returns
// their outcomes in unit-index order, exactly like workloads.RunPool
// given the same pool options. pool.Workers and the replay cache do not
// apply: each worker process runs one unit at a time, with a replay
// cache of its own. OnOutcome is called from Run's goroutine. Unit
// failures settle into outcomes; the returned error is reserved for
// infrastructure failure (context cancellation, an unusable fleet
// directory, the spawn budget running dry, a state dir that cannot be
// written).
func Run(ctx context.Context, units []workloads.Unit, pool workloads.PoolOptions, opts Options) ([]workloads.Outcome, error) {
	if pool.Resume && pool.State == nil {
		return nil, errors.New("fleet: PoolOptions.Resume requires a state dir")
	}
	applyDefaults(&opts)

	table := make([]*unitState, len(units))
	byKey := make(map[string]*unitState, len(units))
	for i, u := range units {
		key := u.Key()
		if dup, ok := byKey[key]; ok {
			return nil, fmt.Errorf("fleet: units %d and %d share key %s", dup.idx, i, key)
		}
		us := &unitState{idx: i, key: key}
		table[i] = us
		byKey[key] = us
	}

	outcomes := make([]workloads.Outcome, len(units))
	for i := range units {
		outcomes[i].Unit = units[i]
	}
	if opts.Stats == nil {
		opts.Stats = &Stats{}
	}
	c := &coordinator{
		pool:     pool,
		opts:     opts,
		units:    table,
		byKey:    byKey,
		outcomes: outcomes,
	}
	return c.run(ctx)
}

func applyDefaults(o *Options) {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultPollInterval
	}
	if o.PoisonThreshold <= 0 {
		o.PoisonThreshold = DefaultPoisonThreshold
	}
	if o.MaxRespawns <= 0 {
		o.MaxRespawns = DefaultMaxRespawns
	}
	if o.Spawn == nil {
		extra := o.WorkerEnv
		o.Spawn = func(workerDir string) (Process, error) {
			return spawnSelfEnv(workerDir, extra)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}
