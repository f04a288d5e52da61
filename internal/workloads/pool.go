package workloads

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/par"
	"gtpin/internal/runstate"
)

// maxRestarts is the per-unit restart budget: a panicked or
// transiently-failed unit runs at most maxRestarts+1 times. Journals and
// gtpind's result.json record the attempts a unit consumed.
const maxRestarts = 2

// Unit is one schedulable work item of a characterization sweep: an
// application profiled on one device configuration at one scale, with
// one trial seed, one fault model, and one ISA configuration. Its Key
// identifies it across processes, which is what lets a resumed sweep
// recognize work the previous run completed.
//
// A Unit is also its own wire format: the fleet hands workers
// json.Marshal(unit), so every field reaches them unless tagged
// otherwise. Spec is the one exception, and it travels by roster name
// (see MarshalJSON).
type Unit struct {
	Spec      *Spec         `json:"-"`
	Scale     Scale         `json:"scale"`
	Cfg       device.Config `json:"config"`
	TrialSeed int64         `json:"trial_seed"`
	Faults    *FaultOptions `json:"faults,omitempty"`
	// Dialect retargets the application's programs to this ISA dialect
	// before they reach the driver. The zero value, GEN, is every
	// roster application's native dialect and leaves them untouched.
	Dialect isa.Dialect `json:"dialect,omitempty"`
	// Translate, when set, binary-translates every compiled kernel to
	// this dialect below GT-Pin's rewriter, so instrumentation lands on
	// the bytes the device runs.
	Translate *isa.Dialect `json:"translate,omitempty"`
}

// unitJSON is Unit's wire form: the application by roster name, then
// the unit's tagged fields. plainUnit has none of Unit's methods, so
// encoding it does not recurse into MarshalJSON.
type unitJSON struct {
	App string `json:"app"`
	plainUnit
}

type plainUnit Unit

// MarshalJSON writes the unit with its application by name. Only a
// roster Spec can be resolved again from its name, so any other Spec is
// refused here rather than at the decoding end.
func (u Unit) MarshalJSON() ([]byte, error) {
	if u.Spec == nil {
		return nil, errors.New("workloads: encode unit: nil Spec")
	}
	if spec, _ := ByName(u.Spec.Name); spec != u.Spec {
		return nil, fmt.Errorf("workloads: encode unit: %s is not the roster's spec", u.Spec.Name)
	}
	return json.Marshal(unitJSON{App: u.Spec.Name, plainUnit: plainUnit(u)})
}

// UnmarshalJSON rebuilds a unit written by MarshalJSON, resolving the
// application name to the roster's Spec. The round trip preserves Key,
// which is what lands a re-dispatched unit on the same journal identity
// wherever it runs.
func (u *Unit) UnmarshalJSON(data []byte) error {
	var w unitJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	spec, err := ByName(w.App)
	if err != nil {
		return fmt.Errorf("workloads: decode unit: %w", err)
	}
	*u = Unit(w.plainUnit)
	u.Spec = spec
	return nil
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
	// WallNs is the wall-clock time the unit spent settling (resume
	// lookup or supervised execution, restarts included) — what the
	// service's adaptive Retry-After hint is derived from.
	WallNs int64
}

// PoolOptions configures a supervised sweep, in process (RunPool) or
// across worker processes (fleet.Run, where Workers and the replay-cache
// fields do not apply).
type PoolOptions struct {
	// State enables journaling and artifact persistence; nil runs the
	// pool purely in memory.
	State *runstate.Dir
	// Resume skips units whose completion (with a verifiable artifact)
	// the journal already records. Requires State.
	Resume bool
	// SaveRecordings additionally persists each unit's CoFluent
	// recording, so replay-based validations can resume too.
	SaveRecordings bool
	// OnOutcome, when set, observes each unit's outcome as it settles.
	// RunPool may call it concurrently from worker goroutines.
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
// after; a completion goes through runstate.Dir.Commit, so the artifact
// is durable before the completion record and a crash between the two
// re-executes the unit rather than trusting a phantom artifact. Worker
// panics are recovered and converted to typed failures
// (faults.ErrWorkerPanic); panicked and transiently-failed units are
// restarted up to maxRestarts times. Unit failures never abort the
// sweep — they settle into Outcomes — and cancelling ctx stops
// dispatching new units and promptly abandons in-flight attempts (their
// outcomes settle with the context error and no terminal journal
// record, so a resume re-executes them), exactly the shape a resumable,
// cancellable sweep needs.
//
// The returned error joins, in unit order, the state dir's I/O failures
// (a journal append, an artifact or blob write) and then ctx's error. A
// unit whose state could not be written also carries the failure in its
// Outcome.Err, and the other units still run.
//
// When ctx carries a deadline or PoolOptions.UnitTimeout is set,
// attempts are additionally time-bounded: a unit still executing when
// its bound expires settles with a faults.ErrUnitTimeout-classified
// failure instead of wedging the pool (see runAttempt).
func RunPool(ctx context.Context, units []Unit, opts PoolOptions) ([]Outcome, error) {
	if opts.Resume && opts.State == nil {
		return nil, errors.New("workloads: PoolOptions.Resume requires a state dir")
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
		ioErr := runUnit(ctx, o, completed, opts, rc)
		mUnitsInflight.Dec()
		o.WallNs = time.Since(start).Nanoseconds()
		observeOutcome(o, start)
		if opts.OnOutcome != nil {
			opts.OnOutcome(*o)
		}
		return ioErr
	})
	return outcomes, err
}

// Adopt is the resume rule: the artifact a journaled completion lets a
// sweep use in place of executing the unit with this key. It needs a
// record in completed (nil when not resuming), an artifact in sd that
// passes the record's digest check, and bytes that decode. A missing,
// torn or stale artifact is refused, and the unit re-executes: a resume
// never surfaces unverifiable data. attempts is the record's count.
func Adopt(sd *runstate.Dir, completed map[string]runstate.Record, key string) (art *Artifact, attempts int, ok bool) {
	rec, ok := completed[key]
	if !ok {
		return nil, 0, false
	}
	data, err := sd.ReadArtifact(key, rec.Digest)
	if err != nil {
		return nil, 0, false
	}
	if art, err = DecodeArtifact(data); err != nil {
		return nil, 0, false
	}
	return art, rec.Attempt, true
}

// runUnit drives one unit to a settled outcome: adopted from the
// journal, or executed under supervision and journaled. It returns the
// state dir's I/O failure, which o.Err carries too.
func runUnit(ctx context.Context, o *Outcome, completed map[string]runstate.Record, opts PoolOptions, rc *ReplayCache) error {
	key := o.Unit.Key()
	if art, attempts, ok := Adopt(opts.State, completed, key); ok {
		o.Artifact, o.Resumed, o.Attempts = art, true, attempts
		return nil
	}

	sd := opts.State
	if sd != nil {
		if err := sd.Journal.Started(key, 0); err != nil {
			o.Err = err
			return err
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
	}

	if err != nil {
		o.Err = err
		// A cancelled unit is a simulated crash: leave it in-flight
		// (started without a terminal record) so a resume re-executes
		// it, and don't journal a terminal state.
		if sd != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			if jerr := sd.Journal.Failed(key, o.Attempts, err.Error(), faults.Label(err), 0); jerr != nil {
				o.Err = errors.Join(err, jerr)
				return jerr
			}
		}
		return nil
	}

	o.Result = res
	o.Artifact = NewArtifact(res)
	if sd == nil {
		return nil
	}
	var rec func(io.Writer) error
	if opts.SaveRecordings {
		rec = res.Recording.Save
		o.Artifact.HasRecording = true
	}
	data, err := o.Artifact.Encode()
	if err != nil {
		o.Err = err
		return nil
	}
	if err := sd.Commit(key, data, rec, o.Attempts, 0); err != nil {
		o.Err = err
		return err
	}
	return nil
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
	// Read the hook here, not in the goroutine: an abandoned attempt
	// outlives its test, whose cleanup clears the hook.
	hook := poolTestHook
	if timeout <= 0 && ctx.Done() == nil {
		return runSupervised(u, attempt, rc, hook)
	}
	type attemptResult struct {
		res *Result
		err error
	}
	ch := make(chan attemptResult, 1)
	go func() {
		res, err := runSupervised(u, attempt, rc, hook)
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
// value and stack, so one bad unit can never take down the sweep. A
// non-nil hook (poolTestHook) runs first.
func runSupervised(u Unit, attempt int, rc *ReplayCache, hook func(Unit, int)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workloads: unit %s attempt %d: %w: %v\n%s",
				u.Key(), attempt, faults.ErrWorkerPanic, r, debug.Stack())
		}
	}()
	if hook != nil {
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
