package workloads

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/par"
	"gtpin/internal/runstate"
)

// Supervision defaults: panicked or transiently-failed units are
// restarted up to DefaultMaxRestarts times with capped exponential
// backoff modelled in virtual nanoseconds — never slept, matching the
// cl resilience layer, so supervised sweeps stay deterministic.
const (
	DefaultMaxRestarts   = 2
	RestartBackoffBaseNs = 1e6  // 1ms modelled delay before the first restart
	RestartBackoffCapNs  = 64e6 // doubling, capped at 64ms
)

// Unit is one schedulable work item of a characterization sweep: an
// application profiled on one device configuration at one scale, with
// one trial seed, one fault model, and one ISA configuration. Its Key
// identifies it across processes, which is what lets a resumed sweep
// recognize work the previous run completed.
type Unit struct {
	Spec      *Spec
	Scale     Scale
	Cfg       device.Config
	TrialSeed int64
	Faults    *FaultOptions
	// Dialect retargets the application's programs to this ISA dialect
	// before they reach the driver. The zero value, GEN, is every
	// roster application's native dialect and leaves them untouched.
	Dialect isa.Dialect
	// Translate, when set, binary-translates every compiled kernel to
	// this dialect below GT-Pin's rewriter, so instrumentation lands on
	// the bytes the device runs.
	Translate *isa.Dialect
}

// Key returns the stable journal identity of the unit:
// app|device@freq|scale|trial|fault-signature, plus |isa=dialect[>target]
// for units that retarget or translate. Native units keep the short
// form, so their journals resume across releases.
func (u Unit) Key() string {
	return fmt.Sprintf("%s|%s@%dMHz|%s|t%d|%s%s",
		u.Spec.Name, u.Cfg.Name, u.Cfg.FreqMHz, u.Scale.Name, u.TrialSeed, faultSig(u.Faults), u.isaSig())
}

// isaSig folds the ISA configuration into unit and replay-cache keys;
// it is empty for native units.
func (u Unit) isaSig() string {
	switch {
	case u.Translate != nil:
		return fmt.Sprintf("|isa=%s>%s", u.Dialect, *u.Translate)
	case u.Dialect != isa.DialectGEN:
		return "|isa=" + u.Dialect.String()
	}
	return ""
}

// faultSig folds the fault model into the unit key, so a sweep rerun
// with different rates, seed, or watchdog never resumes from artifacts
// of the old configuration.
func faultSig(fo *FaultOptions) string {
	if fo == nil {
		return "clean"
	}
	r := fo.Rates
	return fmt.Sprintf("s%d-h%g-n%g-j%g-c%g-w%d", fo.Seed, r.Hang, r.Send, r.JIT, r.Corrupt, fo.Watchdog)
}

// Outcome is one unit's terminal state after a pool run.
type Outcome struct {
	Unit     Unit
	Artifact *Artifact // nil only when the unit failed or never ran
	// Result is the live pipeline result; nil when the unit was
	// resumed from a journaled artifact instead of executed.
	Result   *Result
	Err      error
	Attempts int  // execution attempts consumed, restarts included
	Resumed  bool // satisfied from the journal without executing
	// BackoffNs is the modelled supervision backoff accumulated across
	// restarts, in virtual nanoseconds.
	BackoffNs float64
	// WallNs is the wall-clock time the unit spent settling (resume
	// lookup or supervised execution, restarts included) — what the
	// service's adaptive Retry-After hint is derived from.
	WallNs int64
}

// Ran reports whether the unit reached a usable artifact.
func (o *Outcome) Ran() bool { return o.Artifact != nil }

// PoolOptions configures a supervised sweep.
type PoolOptions struct {
	// State enables journaling and artifact persistence; nil runs the
	// pool purely in memory.
	State *runstate.Dir
	// Resume skips units whose completion (with a verifiable artifact)
	// the journal already records. Requires State.
	Resume bool
	// MaxRestarts overrides the per-unit restart budget; negative
	// disables restarts entirely, zero means DefaultMaxRestarts.
	MaxRestarts int
	// SaveRecordings additionally persists each unit's CoFluent
	// recording, so replay-based validations can resume too.
	SaveRecordings bool
	// OnOutcome, when set, observes each unit's outcome as it settles.
	// It may be called concurrently from worker goroutines.
	OnOutcome func(Outcome)
	// Workers bounds the sweep shards executing concurrently; 0 uses
	// GOMAXPROCS, 1 forces serial execution. Outcomes are always settled
	// into unit-index order, so reports derived from them are
	// byte-identical across worker counts.
	Workers int
	// ReplayCache shares instrumented-replay results across units that
	// differ only by trial seed; nil creates a fresh per-pool cache.
	ReplayCache *ReplayCache
	// DisableReplayCache forces every unit to replay from scratch — the
	// pre-optimization baseline the benchmark harness measures against.
	// Artifacts are byte-identical either way.
	DisableReplayCache bool
	// UnitTimeout bounds each execution attempt's wall-clock time. A
	// unit that exceeds it is abandoned (its worker goroutine keeps
	// running, detached, but the outcome settles) and fails with
	// faults.ErrUnitTimeout — a hung unit trips the fault taxonomy
	// instead of wedging the pool. 0 disables the per-attempt bound.
	UnitTimeout time.Duration
}

// poolTestHook, when non-nil, runs at the start of every execution
// attempt — the crash-recovery suite uses it to inject worker panics at
// chosen units and attempts.
var poolTestHook func(u Unit, attempt int)

// RunPool executes units as a supervised worker pool over internal/par.
//
// Each unit is journaled started before execution and completed/failed
// after; its artifact is made durable (atomic write + fsync) before the
// completion record, so a crash between the two re-executes the unit
// rather than trusting a phantom artifact. Worker panics are recovered
// and converted to typed failures (faults.ErrWorkerPanic); panicked and
// transiently-failed units are restarted within a per-unit budget with
// capped backoff in virtual time. Unit failures never abort the sweep —
// they settle into Outcomes — and cancelling ctx stops dispatching new
// units and promptly abandons in-flight attempts (their outcomes settle
// with the context error and no terminal journal record, so a resume
// re-executes them), exactly the shape a resumable, cancellable sweep
// needs.
//
// When ctx carries a deadline or PoolOptions.UnitTimeout is set,
// attempts are additionally time-bounded: a unit still executing when
// its bound expires settles with a faults.ErrUnitTimeout-classified
// failure instead of wedging the pool (see runAttempt).
func RunPool(ctx context.Context, units []Unit, opts PoolOptions) ([]Outcome, error) {
	if opts.Resume && opts.State == nil {
		return nil, errors.New("workloads: PoolOptions.Resume requires a state dir")
	}
	maxRestarts := opts.MaxRestarts
	switch {
	case maxRestarts == 0:
		maxRestarts = DefaultMaxRestarts
	case maxRestarts < 0:
		maxRestarts = 0
	}
	var completed map[string]runstate.Record
	if opts.Resume {
		completed = opts.State.Recovered.Completed()
	}
	rc := opts.ReplayCache
	if rc == nil && !opts.DisableReplayCache {
		rc = NewReplayCache()
	}
	if opts.DisableReplayCache {
		rc = nil
	}

	outcomes := make([]Outcome, len(units))
	for i := range units {
		outcomes[i].Unit = units[i]
	}
	err := par.ForEachN(ctx, len(units), opts.Workers, func(i int) error {
		o := &outcomes[i]
		start := time.Now()
		mUnitsInflight.Inc()
		runUnit(ctx, o, completed, opts, maxRestarts, rc)
		mUnitsInflight.Dec()
		o.WallNs = time.Since(start).Nanoseconds()
		observeOutcome(o, start)
		if opts.OnOutcome != nil {
			opts.OnOutcome(*o)
		}
		// Unit failures are outcomes, not pool errors; only a journal
		// I/O failure below would have aborted via panic-free return.
		return nil
	})
	return outcomes, err
}

// runUnit drives one unit to a settled outcome: resume, or supervised
// execution with journaling.
func runUnit(ctx context.Context, o *Outcome, completed map[string]runstate.Record, opts PoolOptions, maxRestarts int, rc *ReplayCache) {
	key := o.Unit.Key()

	// Resume: a journaled completion with a digest-verified artifact
	// satisfies the unit without executing.
	if rec, ok := completed[key]; ok {
		data, err := opts.State.ReadArtifact(key, rec.Digest)
		if err == nil {
			if art, derr := DecodeArtifact(data); derr == nil {
				o.Artifact, o.Resumed, o.Attempts = art, true, rec.Attempt
				return
			}
		}
		// Missing, torn, or stale artifact: fall through and re-execute
		// — never surface unverifiable data.
	}

	if opts.State != nil {
		if err := opts.State.Journal.Started(key); err != nil {
			o.Err = err
			return
		}
	}

	var res *Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = runAttempt(ctx, o.Unit, attempt, rc, opts.UnitTimeout)
		o.Attempts = attempt + 1
		if err == nil || !restartable(err) || attempt >= maxRestarts || ctx.Err() != nil {
			break
		}
		// Capped exponential backoff in virtual time, like the cl
		// resilience layer: modelled, never slept.
		d := RestartBackoffBaseNs
		for r := 0; r < attempt && d < RestartBackoffCapNs; r++ {
			d *= 2
		}
		if d > RestartBackoffCapNs {
			d = RestartBackoffCapNs
		}
		o.BackoffNs += d
	}

	if err != nil {
		o.Err = err
		// A cancelled unit is a simulated crash: leave it in-flight
		// (started without a terminal record) so a resume re-executes
		// it, and don't journal a terminal state.
		if opts.State != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			class := faults.Kind(err)
			if class == "" {
				class = faults.ClassOf(err).String()
			}
			if jerr := opts.State.Journal.Failed(key, o.Attempts, err.Error(), class); jerr != nil {
				o.Err = errors.Join(err, jerr)
			}
		}
		return
	}

	o.Result = res
	o.Artifact = NewArtifact(res)
	if opts.State != nil {
		if opts.SaveRecordings {
			if werr := opts.State.WriteBlob(key, ".rec", res.Recording.Save); werr != nil {
				o.Err = werr
				return
			}
			o.Artifact.HasRecording = true
		}
		data, merr := o.Artifact.Encode()
		if merr != nil {
			o.Err = merr
			return
		}
		digest, werr := opts.State.WriteArtifact(key, data)
		if werr != nil {
			o.Err = werr
			return
		}
		if jerr := opts.State.Journal.Completed(key, digest, o.Attempts); jerr != nil {
			o.Err = jerr
		}
	}
}

// runAttempt executes one attempt, bounded in wall-clock time when a
// per-unit timeout applies or the context can end (cancellation or a
// deadline). On the bounded path the attempt runs in its own goroutine
// so a hung or long-running unit can be abandoned: the goroutine keeps
// running (Go cannot kill it) but its result is discarded and the unit
// settles with a classified error — faults.ErrUnitTimeout for an
// expired per-unit budget, the context's own error (additionally marked
// ErrUnitTimeout when the context died of its deadline) for an expired
// sweep deadline, and context.Canceled for a cancelled sweep. Threading
// cancellation through the dispatch itself is what makes a service-side
// job cancel (DELETE /api/v1/jobs/{id}) take effect promptly instead of
// waiting for the in-flight unit to finish. The unbounded path — only
// reachable with an uncancellable context and no timeout — is
// byte-for-byte the pre-existing inline call.
func runAttempt(ctx context.Context, u Unit, attempt int, rc *ReplayCache, timeout time.Duration) (*Result, error) {
	if timeout <= 0 && ctx.Done() == nil {
		return runSupervised(u, attempt, rc)
	}
	type attemptResult struct {
		res *Result
		err error
	}
	ch := make(chan attemptResult, 1)
	go func() {
		res, err := runSupervised(u, attempt, rc)
		ch <- attemptResult{res, err}
	}()
	var expire <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		expire = tm.C
	}
	select {
	case r := <-ch:
		return r.res, r.err
	case <-expire:
		return nil, fmt.Errorf("workloads: unit %s attempt %d: %w after %v (worker abandoned)",
			u.Key(), attempt, faults.ErrUnitTimeout, timeout)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// Sweep deadline: carry both the taxonomy sentinel (for
			// failure tables) and the context error (so the journal
			// leaves the unit in-flight for a resume with more time).
			return nil, fmt.Errorf("workloads: unit %s attempt %d abandoned at sweep deadline: %w: %w",
				u.Key(), attempt, faults.ErrUnitTimeout, ctx.Err())
		}
		return nil, fmt.Errorf("workloads: unit %s attempt %d abandoned: %w", u.Key(), attempt, ctx.Err())
	}
}

// runSupervised executes one attempt with panic isolation: a panicking
// worker is converted into a typed, classified error carrying the panic
// value and stack, so one bad unit can never take down the sweep.
func runSupervised(u Unit, attempt int, rc *ReplayCache) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workloads: unit %s attempt %d: %w: %v\n%s",
				u.Key(), attempt, faults.ErrWorkerPanic, r, debug.Stack())
		}
	}()
	if hook := poolTestHook; hook != nil {
		hook(u, attempt)
	}
	return runPipeline(u, rc)
}

// restartable reports whether the supervision budget applies: recovered
// panics and transient faults get restarts; permanent failures and
// cancellation surface immediately.
func restartable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, faults.ErrWorkerPanic) || faults.IsTransient(err)
}
