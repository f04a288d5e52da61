package memo_test

import (
	"testing"

	"gtpin/internal/obs"

	// The packages that own the six process-wide caches.
	_ "gtpin/internal/detsim"
	_ "gtpin/internal/engine"
	_ "gtpin/internal/gtpin"
	_ "gtpin/internal/workloads"
)

// TestCacheCounterNamesStayRegistered pins the twelve cache counters that
// metrics snapshots, dashboards and the benchmark read by name: linking
// the caches' packages must register all of them, before any lookup.
func TestCacheCounterNamesStayRegistered(t *testing.T) {
	counters := obs.Default().Snapshot().Counters
	for _, name := range []string{
		"jit_cache", // the GT-Pin rewrite memo, under its historical name
		"engine_predecode",
		"detsim_compile_cache",
		"detsim_snippet_kernel_cache",
		"workloads_replay_cache",
		"workloads_native_cache",
	} {
		for _, suffix := range []string{"_hits_total", "_misses_total"} {
			if _, ok := counters[name+suffix]; !ok {
				t.Errorf("counter %s is not registered", name+suffix)
			}
		}
	}
}
