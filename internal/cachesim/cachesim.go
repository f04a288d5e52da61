// Package cachesim provides a set-associative, LRU cache hierarchy
// simulator. It serves two roles from the paper: GT-Pin's "cache
// simulation through the use of memory traces" (Section III-B) — fed by
// the addresses the instrumentation writes to the trace buffer — and the
// memory subsystem of the detailed microarchitectural simulator
// (gtpin/internal/detsim).
package cachesim

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	HitNs     float64 // access latency on hit
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible into %d ways of %dB lines", c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// HD4000L3 returns a cache config modelling the HD 4000's GPU L3.
func HD4000L3() Config {
	return Config{Name: "L3", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, HitNs: 12}
}

// HD4000LLC returns a cache config modelling the shared last-level cache
// slice available to the GPU.
func HD4000LLC() Config {
	return Config{Name: "LLC", SizeBytes: 4 << 20, Ways: 16, LineBytes: 64, HitNs: 35}
}

// Stats counts accesses at one level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative LRU level.
type Cache struct {
	cfg       Config
	sets      int
	setShift  uint
	setMask   uint64
	tagShift  uint
	pageShift uint // log2 of the sets per page
	// pages[set>>pageShift] holds the ways of a page of min(sets,
	// pageSets) consecutive sets, set-major; a page is allocated on its
	// first access, so a simulation pays for the line state it touches
	// rather than for the whole cache. A way's stamp packs its fill
	// epoch (high bits) with its LRU recency clock (low clockBits). A
	// line is valid iff its stamp's epoch equals the cache's: Reset
	// invalidates the whole cache by bumping the epoch instead of
	// clearing the pages, so resets cost O(1) rather than O(lines) —
	// they sit on the per-simulation setup path. Within one epoch, stamp
	// order is recency order, so LRU comparisons use the packed word
	// directly.
	pages [][]way
	epoch uint64
	clock uint64
	stats Stats

	// One-entry MRU filter: the line of the last hit or fill and its way
	// (nil before the first access). A repeat of the last line resolves
	// here with one compare instead of a set scan, and AccessLanes
	// applies the rest of a same-line run through it in bulk
	// (repeatLast). The filter is only a lookup shortcut — it is
	// validated against the live epoch and tag before use, and a filter
	// hit performs exactly the stats and stamp updates a scan hit would.
	lastLine uint64
	last     *way
}

// way is one line slot: its tag and packed epoch/recency stamp. A zero
// stamp means "never filled" (the epoch starts at 1).
type way struct {
	tag, stamp uint64
}

// pageSets is the number of consecutive sets whose line state is
// allocated together (a cache with fewer sets is one page).
const pageSets = 64

// clockBits is the width of the recency clock within a packed stamp:
// 2^40 accesses per reset and 2^24 resets per cache before overflow,
// both far beyond any simulation this drives.
const clockBits = 40

// New creates a cache level. It allocates only the page table; each
// page of line state is allocated on its first access.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	perPage := min(sets, pageSets)
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setShift:  shift,
		setMask:   uint64(sets - 1),
		tagShift:  uint(log2(sets)),
		pageShift: uint(log2(perPage)),
		pages:     make([][]way, sets/perPage),
		epoch:     1,
	}, nil
}

// Stats returns the level's access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics. O(1): lines are invalidated by
// advancing the epoch, not by touching them.
func (c *Cache) Reset() {
	c.epoch++
	c.clock = 0
	c.stats = Stats{}
}

// Access looks up addr; on miss the line is filled (allocate-on-miss for
// both reads and writes). Returns whether the access hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	line := addr >> c.setShift
	tag := line >> c.tagShift
	live := c.epoch << clockBits
	if line == c.lastLine && c.last != nil {
		if w := c.last; w.stamp >= live && w.tag == tag {
			c.stats.Hits++
			w.stamp = live | c.clock
			return true
		}
	}
	set := line & c.setMask
	page := c.pages[set>>c.pageShift]
	if page == nil {
		page = make([]way, c.cfg.Ways<<c.pageShift)
		c.pages[set>>c.pageShift] = page
	}
	base := int(set&(1<<c.pageShift-1)) * c.cfg.Ways
	// Stamps are only ever written with the current or an earlier epoch,
	// so stamp >= live is exactly "live in this epoch" — and every stale
	// stamp compares below every live one, so the running minimum is the
	// victim: an invalid way when one exists, else true LRU. One pass
	// finds both the hit and the victim.
	ws := page[base : base+c.cfg.Ways]
	victim := 0
	vs := ws[0].stamp
	for w := range ws {
		s := ws[w].stamp
		if s >= live && ws[w].tag == tag {
			c.stats.Hits++
			ws[w].stamp = live | c.clock
			c.lastLine = line
			c.last = &ws[w]
			return true
		}
		if s < vs {
			victim = w
			vs = s
		}
	}
	c.stats.Misses++
	if vs >= live {
		c.stats.Evictions++
	}
	ws[victim] = way{tag: tag, stamp: live | c.clock}
	c.lastLine = line
	c.last = &ws[victim]
	return false
}

// repeatLast applies n more accesses to the line the last Access left
// in the MRU filter. Each would hit through the filter, so together they
// advance the clock and the access, hit and write counts by n and leave
// the line stamped with the final clock — exactly what n calls to
// Access with that line would do.
func (c *Cache) repeatLast(n uint64, write bool) {
	c.clock += n
	c.stats.Accesses += n
	c.stats.Hits += n
	if write {
		c.stats.Writes += n
	}
	c.last.stamp = c.epoch<<clockBits | c.clock
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Hierarchy chains cache levels in front of memory.
type Hierarchy struct {
	levels []*Cache
	memNs  float64
	// MemAccesses counts accesses that missed every level.
	MemAccesses uint64
}

// NewHierarchy builds a hierarchy from level configs (nearest first) and
// a memory latency for full misses.
func NewHierarchy(memNs float64, cfgs ...Config) (*Hierarchy, error) {
	h := &Hierarchy{memNs: memNs}
	for _, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Access walks the hierarchy and returns the access latency in
// nanoseconds: the hit latency of the first level that hits, or the
// memory latency on a full miss. Missing levels are filled on the way.
func (h *Hierarchy) Access(addr uint64, write bool) float64 {
	for _, c := range h.levels {
		if c.Access(addr, write) {
			return c.cfg.HitNs
		}
	}
	h.MemAccesses++
	return h.memNs
}

// AccessLanes walks the hierarchy for each key in order, exactly as
// calling Access on each would, and returns the worst latency and the
// number of accesses whose latency reached the memory latency (line
// fills from memory). A run of consecutive keys in one nearest-level
// line walks the hierarchy once: its first access leaves the line in
// the nearest level's MRU filter, so the rest of the run are nearest-
// level hits, applied in bulk.
func (h *Hierarchy) AccessLanes(keys []uint64, write bool) (worstNs float64, memFills uint64) {
	note := func(ns float64, n uint64) {
		if ns > worstNs {
			worstNs = ns
		}
		if ns >= h.memNs {
			memFills += n
		}
	}
	if len(h.levels) == 0 {
		for _, k := range keys {
			note(h.Access(k, write), 1)
		}
		return worstNs, memFills
	}
	l0 := h.levels[0]
	for i := 0; i < len(keys); {
		note(h.Access(keys[i], write), 1)
		line := keys[i] >> l0.setShift
		j := i + 1
		for j < len(keys) && keys[j]>>l0.setShift == line {
			j++
		}
		if run := uint64(j - i - 1); run > 0 {
			l0.repeatLast(run, write)
			note(l0.cfg.HitNs, run)
		}
		i = j
	}
	return worstNs, memFills
}

// Levels returns the cache levels, nearest first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.MemAccesses = 0
}
