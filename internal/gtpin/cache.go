// Rewrite caching: characterization sweeps rebuild the same application
// programs for every (workload, size, repetition) unit, so the expensive
// decode → instrument → re-encode pipeline in rewrite() runs over
// identical inputs thousands of times. The cache below content-addresses
// instrumented binaries by everything that shapes the rewrite output —
// rewriter version, tool options, ring geometry, the slot allocation
// cursor, and the source binary bytes — so repeated builds reuse both the
// instrumented code and the per-kernel instrumentation metadata.
package gtpin

import (
	"encoding/binary"
	"sync/atomic"

	"gtpin/internal/jit"
	"gtpin/internal/memo"
)

// RewriterVersion identifies the rewrite-engine generation. It is hashed
// into every cache key, so changing the injected instruction sequences in
// any way must bump this string — otherwise stale instrumented binaries
// from an older rewriter would be replayed as current.
const RewriterVersion = "gtpin-rewriter/2"

// RewriteCache is a content-addressed memo of instrumented binaries plus
// the per-kernel metadata GT-Pin must reinstall on a hit. It is safe for
// concurrent use, so one cache can back every GT-Pin instance across the
// sharded sweep workers. Its lookups count into the
// jit_cache_{hits,misses}_total counters.
type RewriteCache = memo.Memo[rewriteEntry]

// NewRewriteCache creates an empty rewrite cache.
func NewRewriteCache() *RewriteCache { return memo.New[rewriteEntry]("jit_cache") }

// defaultCache is the process-wide cache used when Options.Cache is nil.
var defaultCache atomic.Pointer[RewriteCache]

func init() {
	defaultCache.Store(NewRewriteCache())
}

// DefaultRewriteCache returns the process-wide rewrite cache shared by
// every Attach that does not override Options.Cache. It may be nil if a
// caller disabled the default with SetDefaultRewriteCache(nil).
func DefaultRewriteCache() *RewriteCache { return defaultCache.Load() }

// SetDefaultRewriteCache replaces the process-wide cache, returning the
// previous one. Passing nil disables default caching (each Attach then
// rewrites from scratch unless given an explicit Options.Cache).
func SetDefaultRewriteCache(rc *RewriteCache) *RewriteCache {
	return defaultCache.Swap(rc)
}

// rewriteEntry is one cached rewrite: the instrumented binary, the
// kernel's instrumentation bookkeeping and the slot cursor after the
// rewrite, so a hit advances the allocator exactly as the original
// rewrite did. The instrKernel is shared read-only between every GT-Pin
// instance that hits the entry; post-construction it is never mutated
// (OnKernelComplete and drainRing only read it).
type rewriteEntry struct {
	bin      *jit.Binary
	ik       *instrKernel
	nextSlot int
}

// cacheKey content-addresses one rewrite: any input that can change the
// instrumented output bytes or the metadata must be hashed here.
//
//   - RewriterVersion: the injected-sequence generation.
//   - MemTrace/Latency bits: they select which sequences are spliced in.
//   - ringEntries: baked into the memory-trace slot mask.
//   - nextSlot: counter slot numbers are embedded as immediates, so the
//     same binary rewritten at a different allocation cursor produces
//     different code.
//   - The binary's ISA dialect: it selects the scratch-register band the
//     injected sequences use, so identical code bytes under two dialects
//     must never collide to one cached instrumentation. (The dialect is
//     in the header, hence in the code bytes too — hashing it separately
//     keeps the key correct even for byte-coincident encodings.)
//   - The source binary bytes.
func (g *GTPin) cacheKey(bin *jit.Binary) string {
	var cfg [18]byte
	if g.opts.MemTrace {
		cfg[0] |= 1
	}
	if g.opts.Latency {
		cfg[0] |= 2
	}
	binary.LittleEndian.PutUint64(cfg[1:9], uint64(g.ringEntries))
	binary.LittleEndian.PutUint64(cfg[9:17], uint64(g.nextSlot))
	if d, err := jit.BinaryDialect(bin); err == nil {
		cfg[17] = byte(d)
	} else {
		cfg[17] = 0xFF // malformed header; instrument() will reject it
	}
	return memo.Key([]byte(RewriterVersion), cfg[:], bin.Code)
}
