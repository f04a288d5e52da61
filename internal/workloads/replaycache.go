package workloads

import (
	"fmt"

	"gtpin/internal/cofluent"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
	"gtpin/internal/memo"
)

// ReplayCacheStats reports a cache's hit/miss history. Hits/Misses
// count the instrumented-replay phase; NativeHits/NativeMisses count
// the native (timed) phase, which is memoizable for clean units because
// trial seeds only perturb its reported timings, never its execution.
type ReplayCacheStats struct {
	Hits         uint64
	Misses       uint64
	Entries      int
	NativeHits   uint64
	NativeMisses uint64
}

// ReplayCache memoizes the instrumented-replay phase of the profiling
// pipeline across sweep units that differ only in trial seed. The
// replay runs on an unjittered device — trial seeds perturb only the
// native phase's timings — so its invocation counts, static kernel
// shapes, and injected-fault tallies are a pure function of
// (application, scale, device config, fault model, ISA configuration).
// A multi-trial sweep otherwise re-instruments and re-executes an
// identical replay once per trial; the cache collapses those to one
// execution whose GT-Pin state every trial's profile join shares
// read-only. Artifacts stay byte-identical to uncached runs because the
// memoized result is exactly what each trial would have recomputed.
// Failed phases are never cached, so a later unit with the same replay
// configuration re-executes a failed replay from scratch.
type ReplayCache struct {
	replays *memo.Memo[replayEntry]
	natives *memo.Memo[*nativeEntry]
}

type replayEntry struct {
	g     *gtpin.GTPin
	stats faults.Stats
}

// nativeEntry is one memoized native phase: the built application, its
// replayable recording, and the tracer of an UNJITTERED run — per-trial
// timings are synthesized from it with Tracer.PerturbTimes. All three
// are shared read-only across trials.
type nativeEntry struct {
	app    *App
	rec    *cofluent.Recording
	tracer *cofluent.Tracer
}

// NewReplayCache creates an empty cache.
func NewReplayCache() *ReplayCache {
	return &ReplayCache{
		replays: memo.New[replayEntry]("workloads_replay_cache"),
		natives: memo.New[*nativeEntry]("workloads_native_cache"),
	}
}

// The replay memos' counters are process-wide; registering them at
// init lists them in every metrics snapshot, before any pool runs.
var _ = NewReplayCache()

// Stats snapshots the cache counters.
func (rc *ReplayCache) Stats() ReplayCacheStats {
	r, n := rc.replays.Stats(), rc.natives.Stats()
	return ReplayCacheStats{
		Hits: r.Hits, Misses: r.Misses, Entries: r.Entries,
		NativeHits: n.Hits, NativeMisses: n.Misses,
	}
}

// replayKey identifies one replay configuration of u under the fault
// model fo. The trial seed is absent by design: it must never influence
// the replay phase, and the cache is what enforces that economy. The
// ISA configuration is present: it changes the code that runs.
func replayKey(u Unit, fo *FaultOptions) string {
	return fmt.Sprintf("%s|%+v|%+v|%s%s", u.Spec.Name, u.Cfg, u.Scale, faultSig(fo), u.isaSig())
}
