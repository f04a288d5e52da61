package gtpin

import (
	"time"

	"gtpin/internal/jit"
	"gtpin/internal/obs"
)

// Observability for the binary rewriter: how often the full
// decode → instrument → re-encode pipeline actually runs (cache hits
// are visible through the jit_cache_* counters), how long it takes on
// the wall clock, and how much memory-trace data the ring overwrote
// before a drain.
var (
	mRewrites = obs.DefaultCounter("gtpin_rewrites_total",
		"full binary rewrites performed (cache misses and uncached attaches)")
	mRewriteWallNs = obs.DefaultHistogram("gtpin_rewrite_wall_ns",
		"wall-clock duration of one full binary rewrite in nanoseconds")
	mRingDrops = obs.DefaultCounter("gtpin_ring_drops_total",
		"memory-trace ring chunks overwritten before being drained")
)

// instrumentObserved wraps instrument with rewrite metrics and — when a
// tracer is installed — a wall-clock span named after the rewritten
// kernel.
func (g *GTPin) instrumentObserved(bin *jit.Binary) (rewriteEntry, error) {
	start := time.Now()
	e, err := g.instrument(bin)
	if err != nil {
		return e, err
	}
	mRewrites.Inc()
	mRewriteWallNs.Observe(uint64(time.Since(start).Nanoseconds()))
	if t := obs.ActiveTracer(); t != nil {
		t.SpanWall("gtpin", "rewrite "+e.ik.Name, "rewriter", start,
			obs.A("bytes", len(e.bin.Code)))
	}
	return e, nil
}
