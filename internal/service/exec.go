package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"gtpin/internal/faults"
	"gtpin/internal/fleet"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// runner is the pool entry point, injected so tests can script unit
// outcomes without running the real pipeline.
type runner func(ctx context.Context, units []workloads.Unit, opts workloads.PoolOptions) ([]workloads.Outcome, error)

// fleetRunner is the fleet coordinator entry point, injected the same
// way.
type fleetRunner func(ctx context.Context, units []workloads.Unit, pool workloads.PoolOptions, opts fleet.Options) ([]workloads.Outcome, error)

// fleetAdapter wraps the fleet coordinator in the pool's runner shape so
// runJob's retry-pass loop drives distributed jobs unchanged: each pass
// leases its pending units across Spec.Fleet worker processes (spawned
// by re-executing this binary) and the merged outcomes come back in the
// same order and byte-for-byte form the in-process pool would produce.
func (s *Server) fleetAdapter(j *Job) runner {
	return func(ctx context.Context, units []workloads.Unit, pool workloads.PoolOptions) ([]workloads.Outcome, error) {
		return s.runFleet(ctx, units, pool, fleet.Options{
			Dir:     filepath.Join(j.dir, "fleet"),
			Workers: j.Spec.Fleet,
			Logf: func(format string, args ...any) {
				s.cfg.Logf("gtpind: job "+j.ID+": "+format, args...)
			},
		})
	}
}

// executeJob drives one popped job to rest. Every error settles into a
// terminal job state — workers never die with their job — with one
// deliberate exception: a job interrupted by daemon shutdown keeps its
// on-disk state at "running" so the next start re-queues it.
func (s *Server) executeJob(ctx context.Context, j *Job) {
	if j.State() != StateQueued {
		return // cancelled (or otherwise settled) while queued
	}
	jctx, cancel := context.WithCancel(ctx)
	if j.Spec.TimeoutSec > 0 {
		jctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutSec*float64(time.Second)))
	}
	j.setCancel(cancel)
	defer func() {
		j.setCancel(nil)
		cancel()
	}()

	if err := j.setState(StateRunning, ""); err != nil {
		s.cfg.Logf("gtpind: job %s: %v", j.ID, err)
	}
	mJobsRunning.Inc()
	defer mJobsRunning.Dec()
	s.cfg.Logf("gtpind: job %s: running (%s, tenant %q)", j.ID, j.Spec.Kind, j.Tenant)

	st, errText := s.runJob(jctx, j)

	switch {
	case j.cancelRequested():
		st, errText = StateCancelled, "cancelled by client"
	case ctx.Err() != nil:
		// Daemon shutdown or drain timeout: the job is not over, it is
		// interrupted. Leave status.json at "running" so the next start
		// resumes it from the journal.
		mJobsInterrupted.Inc()
		s.cfg.Logf("gtpind: job %s: interrupted, left resumable", j.ID)
		return
	case jctx.Err() == context.DeadlineExceeded:
		st = StateFailed
		errText = fmt.Sprintf("job deadline (%gs) exceeded; completed units remain journaled", j.Spec.TimeoutSec)
	}

	switch st {
	case StateDone:
		mJobsCompleted.Inc()
	case StatePartial:
		mJobsPartial.Inc()
	case StateCancelled:
		mJobsCancelled.Inc()
	default:
		mJobsFailed.Inc()
	}
	if err := j.setState(st, errText); err != nil {
		s.cfg.Logf("gtpind: job %s: %v", j.ID, err)
	}
	s.cfg.Logf("gtpind: job %s: %s%s", j.ID, st, suffixIf(errText))
}

func suffixIf(errText string) string {
	if errText == "" {
		return ""
	}
	return ": " + errText
}

// runJob executes the job's units on the pool, or on a fleet when the
// spec asks for one: pass 0 resumes from the journal, later passes
// re-dispatch only transiently-failed units with backoff between
// passes, and the per-job breaker degrades a failing job to partial
// results. A run error that is not the job's own cancellation, such as
// a state dir that cannot be written, fails the job. It returns the
// terminal state the job earned; the caller overrides it for
// cancellation/shutdown/deadline.
func (s *Server) runJob(ctx context.Context, j *Job) (State, string) {
	units, err := j.Spec.units(j.Spec.faultOptions())
	if err != nil {
		return StateFailed, err.Error()
	}
	j.mutateProgress(func(p *Progress) { p.UnitsTotal = len(units) })

	sd, err := runstate.OpenDir(filepath.Join(j.dir, "state"))
	if err != nil {
		// Includes ErrStateDirLocked: a CLI sweep owns this journal
		// right now. Fail the job rather than corrupt the journal.
		return StateFailed, err.Error()
	}
	defer sd.Close()
	hasJournal := len(sd.Recovered.Completed())+len(sd.Recovered.InFlight())+len(sd.Recovered.Failed()) > 0

	br := newBreaker(s.cfg.BreakerThreshold)
	backoff := Backoff{Base: s.cfg.RetryBase, Cap: s.cfg.RetryCap}

	run := s.runPool
	if j.Spec.Fleet > 0 {
		run = s.fleetAdapter(j)
	}

	final := make([]workloads.Outcome, len(units))
	pending := make([]int, len(units))
	for i := range pending {
		pending[i] = i
	}

	for pass := 0; ; pass++ {
		passUnits := make([]workloads.Unit, len(pending))
		for k, idx := range pending {
			passUnits[k] = units[idx]
		}
		pctx, pcancel := context.WithCancel(ctx)
		outs, perr := run(pctx, passUnits, workloads.PoolOptions{
			State:          sd,
			Resume:         pass == 0 && hasJournal,
			SaveRecordings: j.Spec.Kind == KindRepro,
			Workers:        s.cfg.UnitWorkers,
			UnitTimeout:    s.cfg.UnitTimeout,
			OnOutcome: func(o workloads.Outcome) {
				j.noteOutcome(o)
				if o.Err == nil && !o.Resumed && o.WallNs > 0 {
					s.lat.observe(o.WallNs)
				}
				// Cancellation is not a unit failure; everything else
				// (including abandonment) feeds the breaker.
				failed := o.Err != nil && !errors.Is(o.Err, context.Canceled)
				if br.observe(failed) {
					mBreakerTrips.Inc()
					s.cfg.Logf("gtpind: job %s: breaker tripped after %d consecutive failures; degrading to partial",
						j.ID, s.cfg.BreakerThreshold)
					pcancel()
				}
			},
		})
		pcancel()
		for k, idx := range pending {
			if k < len(outs) {
				final[idx] = outs[k]
			}
		}
		tripped := br.Tripped()
		reconcileProgress(j, final, pass+1, tripped)
		if perr != nil && ctx.Err() == nil && !tripped {
			// A run error that is not our own cancellation: the job's
			// state dir could not be written, or the fleet itself
			// failed. Nothing downstream is trustworthy.
			return StateFailed, perr.Error()
		}
		if ctx.Err() != nil || tripped {
			break
		}

		retry := retryableIndices(final)
		if len(retry) == 0 || pass >= s.cfg.MaxRetryPasses {
			break
		}
		mRetryPasses.Inc()
		mUnitRetries.Add(uint64(len(retry)))
		j.mutateProgress(func(p *Progress) { p.Retries += len(retry) })
		d := backoff.Delay(pass, j.ID)
		s.cfg.Logf("gtpind: job %s: retry pass %d: %d transient unit(s), backoff %v",
			j.ID, pass+1, len(retry), d)
		if err := s.cfg.sleep(ctx, d); err != nil {
			break
		}
		pending = retry
	}

	done, failed := 0, 0
	var firstErr error
	for i := range final {
		switch {
		case final[i].Artifact != nil:
			done++
		case final[i].Err != nil:
			failed++
			if firstErr == nil {
				firstErr = final[i].Err
			}
		}
	}

	if ctx.Err() != nil {
		return StateFailed, ctx.Err().Error() // caller refines this
	}
	if err := writeResult(j, sd, final); err != nil {
		return StateFailed, err.Error()
	}
	switch {
	case done == len(final):
		return StateDone, ""
	case done == 0:
		return StateFailed, fmt.Sprintf("all %d unit(s) failed; first: %v", len(final), firstErr)
	default:
		text := fmt.Sprintf("%d/%d unit(s) usable", done, len(final))
		if br.Tripped() {
			text += " (breaker tripped)"
		}
		return StatePartial, text
	}
}

// retryableIndices selects the units worth another pass: failed with a
// transient classification. Permanent failures (bad input, panic past
// the restart budget, timeout abandonment) are not retried — the pool
// already spent its restart budget on anything restartable.
func retryableIndices(final []workloads.Outcome) []int {
	var retry []int
	for i := range final {
		if final[i].Err != nil && faults.IsTransient(final[i].Err) {
			retry = append(retry, i)
		}
	}
	return retry
}

// reconcileProgress replaces the approximate live counters with the
// exact merged state at a pass boundary.
func reconcileProgress(j *Job, final []workloads.Outcome, passes int, tripped bool) {
	var p Progress
	p.UnitsTotal = len(final)
	for i := range final {
		switch {
		case final[i].Artifact != nil:
			p.UnitsDone++
			if final[i].Resumed {
				p.UnitsResumed++
			}
		case final[i].Err != nil:
			p.UnitsFailed++
		default:
			p.UnitsSkipped++
		}
	}
	j.mutateProgress(func(old *Progress) {
		p.Retries = old.Retries
		p.Passes = passes
		p.BreakerTripped = old.BreakerTripped || tripped
		*old = p
	})
}

// resultUnit is one row of result.json.
type resultUnit struct {
	Key      string `json:"key"`
	Status   string `json:"status"` // completed | failed | skipped
	Digest   string `json:"digest,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Class    string `json:"class,omitempty"` // fault taxonomy kind for failures
}

// resultFile is result.json, the job's summary artifact. It is
// canonical: unit rows in spec order, digests recomputed from the
// artifact encoding, no timestamps or wall-clock detail — so a resumed
// job and an uninterrupted one write byte-identical results.
type resultFile struct {
	ID     string       `json:"id"`
	Kind   string       `json:"kind"`
	Config string       `json:"config"`
	Scale  string       `json:"scale"`
	Trials int          `json:"trials"`
	Units  []resultUnit `json:"units"`
}

func writeResult(j *Job, sd *runstate.Dir, final []workloads.Outcome) error {
	rf := resultFile{
		ID: j.ID, Kind: j.Spec.Kind, Config: j.Spec.Config,
		Scale: j.Spec.Scale, Trials: j.Spec.Trials,
		Units: make([]resultUnit, 0, len(final)),
	}
	for i := range final {
		o := &final[i]
		ru := resultUnit{Key: o.Unit.Key(), Attempts: o.Attempts}
		switch {
		case o.Artifact != nil:
			data, err := o.Artifact.Encode()
			if err != nil {
				return fmt.Errorf("service: encode artifact for %s: %w", ru.Key, err)
			}
			ru.Status = "completed"
			ru.Digest = runstate.Digest(data)
		case o.Err != nil:
			ru.Status = "failed"
			ru.Class = faults.Label(o.Err)
		default:
			ru.Status = "skipped"
			ru.Attempts = 0
		}
		rf.Units = append(rf.Units, ru)
	}
	data, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal result: %w", err)
	}
	return runstate.WriteFileAtomic(filepath.Join(j.dir, "result.json"), append(data, '\n'))
}
