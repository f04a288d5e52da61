package workloads

import (
	"time"

	"gtpin/internal/obs"
)

// Observability for the supervised sweep pool — unit granularity only;
// per-dispatch accounting lives in internal/device, and the replay
// cache counts through its memos (see NewReplayCache).
var (
	mUnitsCompleted = obs.DefaultCounter("workloads_units_completed_total",
		"sweep units that produced a usable artifact by executing")
	mUnitsFailed = obs.DefaultCounter("workloads_units_failed_total",
		"sweep units that failed past the restart budget")
	mUnitsResumed = obs.DefaultCounter("workloads_units_resumed_total",
		"sweep units satisfied from a journaled artifact without executing")
	mUnitRestarts = obs.DefaultCounter("workloads_unit_restarts_total",
		"supervised restarts consumed across all units")
	mUnitsInflight = obs.DefaultGauge("workloads_units_inflight",
		"sweep units currently executing on pool workers")
	mUnitWallNs = obs.DefaultHistogram("workloads_unit_wall_ns",
		"wall-clock duration of one executed sweep unit in nanoseconds")
)

// observeOutcome records a settled unit and — when a tracer is
// installed — a wall-clock span on the worker's lane covering the
// unit's whole supervised execution.
func observeOutcome(o *Outcome, start time.Time) {
	switch {
	case o.Resumed:
		mUnitsResumed.Inc()
	case o.Err != nil:
		mUnitsFailed.Inc()
	default:
		mUnitsCompleted.Inc()
	}
	if o.Attempts > 1 {
		mUnitRestarts.Add(uint64(o.Attempts - 1))
	}
	if o.Resumed {
		return
	}
	mUnitWallNs.Observe(uint64(time.Since(start).Nanoseconds()))
	if t := obs.ActiveTracer(); t != nil {
		status := "ok"
		if o.Err != nil {
			status = "failed"
		}
		t.SpanWall("unit", o.Unit.Key(), "pool", start,
			obs.A("attempts", o.Attempts), obs.A("status", status))
	}
}
