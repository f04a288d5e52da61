package engine

import (
	"fmt"

	"gtpin/internal/isa"
	"gtpin/internal/obs"
)

// Engine-level observability: the counters every backend shares, so the
// same work is not double-reported under backend-specific names.
// Backends record at dispatch/report granularity — the interpreter
// loops themselves are never touched.
var (
	mDispatches = obs.DefaultCounter("engine_dispatches_total",
		"kernel dispatches interpreted by the engine, across all backends")
	mInstrs = obs.DefaultCounter("engine_instructions_total",
		"dynamic instructions interpreted by the engine, across all backends")
	mLaneOps = obs.DefaultCounter("engine_lane_ops_total",
		"per-lane operations evaluated by the cycle-level loop")
)

// mInstrsByDialect splits engine_instructions_total by the ISA dialect
// the interpreted kernels were compiled for. The registry is
// name-keyed, so the dialect label is embedded in the metric name; the
// Prometheus exposition renders it as a labelled sample of the same
// family.
var mInstrsByDialect = func() [isa.NumDialects]*obs.Counter {
	var t [isa.NumDialects]*obs.Counter
	for _, d := range isa.Dialects() {
		t[d] = obs.DefaultCounter(
			fmt.Sprintf("engine_instructions_total{dialect=%q}", d.String()),
			fmt.Sprintf("dynamic instructions interpreted by the engine under the %s dialect", d))
	}
	return t
}()

// ObserveExecution folds a backend's completed work into the shared
// engine counters, attributed to the ISA dialect the work executed
// under. Called at dispatch (device) or report (detsim) granularity.
func ObserveExecution(d isa.Dialect, dispatches, instrs, laneOps uint64) {
	mDispatches.Add(dispatches)
	mInstrs.Add(instrs)
	mLaneOps.Add(laneOps)
	if d.Valid() {
		mInstrsByDialect[d].Add(instrs)
	}
}
