package detsim

import (
	"gtpin/internal/engine"
	"gtpin/internal/isa"
	"gtpin/internal/obs"
)

// Observability for the detailed simulator — invocation granularity,
// recorded once per Run from the finished report so the per-lane step
// loops stay untouched.
// Engine-level work (detailed dispatches, instructions, lane ops) is
// recorded under the shared engine_ prefix via engine.ObserveExecution;
// only the counters specific to this backend's sampling and cache model
// keep the detsim_ prefix.
var (
	mDetailedInvocations = obs.DefaultCounter("detsim_detailed_invocations_total",
		"invocations simulated with the cycle-level model")
	mFastForwardInvocations = obs.DefaultCounter("detsim_fastforward_invocations_total",
		"invocations executed functionally only")
	mWarmedInvocations = obs.DefaultCounter("detsim_warmed_invocations_total",
		"invocations run in cache-warming mode")
	mSimCacheHits = obs.DefaultCounter("detsim_cache_hits_total",
		"simulated cache hits across all levels")
	mSimCacheMisses = obs.DefaultCounter("detsim_cache_misses_total",
		"simulated cache misses across all levels")
	mSnippetsCaptured = obs.DefaultCounter("detsim_snippets_captured_total",
		"interval snippets captured from recordings")
	mSnippetBytes = obs.DefaultCounter("detsim_snippet_bytes_total",
		"serialized bytes across captured snippets")
	mSnippetReplays = obs.DefaultCounter("detsim_snippet_replays_total",
		"interval snippets replayed in isolation")
)

// observeReport folds one finished simulation into the counters and —
// when a tracer is installed — records the detailed ranges as spans on
// the virtual timeline, positioned by modeled simulation time. The
// dialect attributes the engine-level instruction counters; recordings
// and snippets are single-dialect, so one value covers the report.
func observeReport(rep *Report, d isa.Dialect) {
	mDetailedInvocations.Add(uint64(rep.Detailed))
	mFastForwardInvocations.Add(uint64(rep.FastForwarded))
	mWarmedInvocations.Add(uint64(rep.Warmed))
	engine.ObserveExecution(d, uint64(rep.Detailed), rep.DetailedInstrs, rep.LaneOps)
	for _, c := range rep.Cache {
		mSimCacheHits.Add(c.Hits)
		mSimCacheMisses.Add(c.Misses)
	}
	t := obs.ActiveTracer()
	if t == nil {
		return
	}
	startNs := 0.0
	for i := range rep.Ranges {
		rr := &rep.Ranges[i]
		t.SpanVirtual("detsim", "detailed range", "detsim", startNs, rr.DetailedTimeNs,
			obs.A("from", rr.Range.From),
			obs.A("to", rr.Range.To),
			obs.A("invocations", rr.Invocations),
			obs.A("instrs", rr.DetailedInstrs))
		startNs += rr.DetailedTimeNs
	}
}
