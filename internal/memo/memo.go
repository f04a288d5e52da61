// Package memo is the one memoization primitive behind every
// process-wide, content-addressed cache in the reproduction: the GT-Pin
// rewrite, engine predecode, detsim program compile and snippet-kernel
// decode, and the instrumented-replay and native phases of the profiling
// pipeline.
//
// Each of those steps is a deterministic function of its inputs, so a
// Memo stores the first value computed under a key and serves it to
// every later lookup. The rules are the same for every cache:
//
//   - A nil *Memo is a disabled cache: Do computes every time and
//     counts nothing.
//   - Errors are never stored, so a failed computation is retried by
//     the next lookup.
//   - Hits and misses are counted at lookup, per Memo (Stats) and in
//     the process-wide {name}_{hits,misses}_total counters.
//   - Racing misses on one key each compute; the first store wins and
//     every racer returns the stored value, so callers share one value
//     per key.
//
// Stored values are shared by every caller and must never be mutated.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"gtpin/internal/obs"
)

// Key builds a SHA-256 content address over the parts. Each part is
// length-prefixed before hashing, so distinct part boundaries can never
// produce the same key ("ab","c" != "a","bc").
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of one Memo's counters.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Memo maps keys to the values computed for them. It is safe for
// concurrent use.
type Memo[V any] struct {
	hits, misses *obs.Counter // process-wide, shared by every Memo of the name

	mu      sync.Mutex
	entries map[string]V
	stats   Stats // Hits and Misses; Stats fills in Entries
}

// New creates an empty memo whose lookups also count into the
// process-wide counters {name}_hits_total and {name}_misses_total.
// Memos created under one name share those counters.
func New[V any](name string) *Memo[V] {
	return &Memo[V]{
		hits:    obs.DefaultCounter(name+"_hits_total", "lookups served from the "+name+" memo"),
		misses:  obs.DefaultCounter(name+"_misses_total", "lookups that computed a value for the "+name+" memo"),
		entries: make(map[string]V),
	}
}

// Do returns the value stored under key, or computes it with f and
// stores it unless f fails. hit reports whether the lookup found a
// stored value; a racing miss that loses the store returns the winner's
// value with hit false.
func (m *Memo[V]) Do(key string, f func() (V, error)) (v V, hit bool, err error) {
	if m == nil {
		v, err = f()
		return v, false, err
	}
	m.mu.Lock()
	v, hit = m.entries[key]
	if hit {
		m.stats.Hits++
	} else {
		m.stats.Misses++
	}
	m.mu.Unlock()
	if hit {
		m.hits.Inc()
		return v, true, nil
	}
	m.misses.Inc()

	if v, err = f(); err != nil {
		return v, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.entries[key]; ok {
		return first, false, nil
	}
	m.entries[key] = v
	return v, false, nil
}

// Stats snapshots the memo's own counters; a nil memo reports zeros.
func (m *Memo[V]) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Entries = len(m.entries)
	return s
}

// Reset drops every entry and zeroes the memo's own counters; the
// process-wide counters keep counting.
func (m *Memo[V]) Reset() {
	m.mu.Lock()
	m.entries = make(map[string]V)
	m.stats = Stats{}
	m.mu.Unlock()
}
