package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
)

// This file holds the previous Cache, which allocated every set's line
// state up front in two flat arrays, as the reference the paged Cache
// must match access for access: the same hit or miss on every access
// and the same Stats, across Reset. It also checks Hierarchy.AccessLanes
// against one Access per key on a twin hierarchy. The reference below is
// the old code verbatim except for its names; it shares clockBits and
// log2 with the production cache.

// flatCache is one set-associative LRU level.
type flatCache struct {
	cfg      Config
	sets     int
	setShift uint
	setMask  uint64
	tagShift uint
	// tags[set*ways+way]; stamp[set*ways+way] packs the line's fill
	// epoch (high bits) with its LRU recency clock (low clockBits). A
	// line is valid iff its stamp's epoch equals the cache's: Reset
	// invalidates the whole cache by bumping the epoch instead of
	// clearing the line arrays, so resets cost O(1) rather than
	// O(lines) — they sit on the per-simulation setup path, where an
	// LLC-sized clear used to dominate short runs. Within one epoch,
	// stamp order is recency order, so LRU comparisons use the packed
	// word directly.
	tags  []uint64
	stamp []uint64
	epoch uint64
	clock uint64
	stats Stats

	// One-entry MRU filter: the line of the last hit or fill and its way
	// index. Block sends touch the same line for every lane, so most
	// accesses resolve here with one compare instead of a set scan. The
	// filter is only a lookup shortcut — it is validated against the live
	// epoch and tag before use, and a filter hit performs exactly the
	// stats and stamp updates a scan hit would.
	lastLine uint64
	lastIdx  int
}

// newFlatCache creates a cache level.
func newFlatCache(cfg Config) (*flatCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	n := sets * cfg.Ways
	return &flatCache{
		cfg:      cfg,
		sets:     sets,
		setShift: shift,
		setMask:  uint64(sets - 1),
		tagShift: uint(log2(sets)),
		tags:     make([]uint64, n),
		stamp:    make([]uint64, n),
		epoch:    1, // stamp[] zero value means "never filled"
	}, nil
}

// Config returns the level's configuration.
func (c *flatCache) Config() Config { return c.cfg }

// Stats returns the level's access statistics.
func (c *flatCache) Stats() Stats { return c.stats }

// Reset clears contents and statistics. O(1): lines are invalidated by
// advancing the epoch, not by touching them.
func (c *flatCache) Reset() {
	c.epoch++
	c.clock = 0
	c.stats = Stats{}
}

// Access looks up addr; on miss the line is filled (allocate-on-miss for
// both reads and writes). Returns whether the access hit.
func (c *flatCache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	line := addr >> c.setShift
	tag := line >> c.tagShift
	live := c.epoch << clockBits
	if line == c.lastLine {
		if i := c.lastIdx; c.stamp[i] >= live && c.tags[i] == tag {
			c.stats.Hits++
			c.stamp[i] = live | c.clock
			return true
		}
	}
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	// Stamps are only ever written with the current or an earlier epoch,
	// so stamp >= live is exactly "live in this epoch" — and every stale
	// stamp compares below every live one, so the running minimum is the
	// victim: an invalid way when one exists, else true LRU. One pass
	// finds both the hit and the victim.
	st := c.stamp[base : base+c.cfg.Ways]
	tg := c.tags[base : base+c.cfg.Ways]
	victim := 0
	vs := st[0]
	for w := 0; w < len(st); w++ {
		s := st[w]
		if s >= live && tg[w] == tag {
			c.stats.Hits++
			st[w] = live | c.clock
			c.lastLine = line
			c.lastIdx = base + w
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
	tg[victim] = tag
	st[victim] = live | c.clock
	c.lastLine = line
	c.lastIdx = base + victim
	return false
}

// randomGeometry draws a valid level with fewer than, exactly or more
// than pageSets sets and 1 to 16 ways.
func randomGeometry(rng *rand.Rand) Config {
	sets := 1 << rng.Intn(6) // 1 .. 32
	switch rng.Intn(3) {
	case 0:
		sets = pageSets
	case 1:
		sets = pageSets << (1 + rng.Intn(3))
	}
	ways := 1 + rng.Intn(16)
	line := 1 << (2 + rng.Intn(6)) // 4 .. 128 bytes
	return Config{Name: "r", SizeBytes: sets * ways * line, Ways: ways, LineBytes: line, HitNs: 1}
}

// randomAddr draws an address that often repeats the previous line,
// lands in a region that fits the cache, conflicts in one of a few sets
// with up to twice as many lines as it has ways, or strays over several
// times the cache's size and over a few surfaces (the high 32 bits), so
// streams mix filter hits, scan hits, fills into invalid ways and
// evictions.
func randomAddr(rng *rand.Rand, cfg Config, prev uint64) uint64 {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	switch rng.Intn(5) {
	case 0:
		return prev&^uint64(cfg.LineBytes-1) + uint64(rng.Intn(cfg.LineBytes))
	case 1:
		return uint64(rng.Intn(cfg.SizeBytes / 2))
	case 2:
		k, set := rng.Intn(2*cfg.Ways+1), rng.Intn(min(sets, 4))
		return uint64((k*sets + set) * cfg.LineBytes)
	}
	return uint64(rng.Intn(4*cfg.SizeBytes)) | uint64(rng.Intn(3))<<32
}

// TestPagedCacheMatchesFlat runs random access streams, with resets in
// mid-stream, through the paged Cache and the flat reference over random
// geometries. Every access must hit or miss alike, and the Stats must be
// equal before every reset and at the end.
func TestPagedCacheMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		cfg := randomGeometry(rng)
		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newFlatCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total Stats
		var addr uint64
		for i := 0; i < 2000; i++ {
			if rng.Intn(500) == 0 {
				g, w := got.Stats(), want.Stats()
				if g != w {
					t.Fatalf("%+v access %d: stats before reset %+v, want %+v", cfg, i, g, w)
				}
				total.Hits += g.Hits
				total.Evictions += g.Evictions
				got.Reset()
				want.Reset()
			}
			addr = randomAddr(rng, cfg, addr)
			write := rng.Intn(3) == 0
			if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
				t.Fatalf("%+v access %d (%#x): hit %v, want %v", cfg, i, addr, g, w)
			}
		}
		g, w := got.Stats(), want.Stats()
		if g != w {
			t.Fatalf("%+v: stats %+v, want %+v", cfg, g, w)
		}
		if total.Hits+g.Hits == 0 || total.Evictions+g.Evictions == 0 {
			t.Fatalf("%+v: the stream never hit or never evicted", cfg)
		}
	}
}

// TestNewAllocatesPageTableOnly pins the point of paging: a fresh level
// holds no line state, and an access allocates only its set's page.
func TestNewAllocatesPageTableOnly(t *testing.T) {
	c, err := New(HD4000LLC())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.pages) != 4096/pageSets {
		t.Fatalf("LLC page table has %d pages, want %d", len(c.pages), 4096/pageSets)
	}
	allocated := func() (n int) {
		for _, p := range c.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("fresh cache holds %d pages", n)
	}
	c.Access(0, false)
	c.Access((pageSets-1)*64, false)
	c.Access(pageSets*64, false)
	if n := allocated(); n != 2 {
		t.Fatalf("accesses to sets 0, %d and %d allocated %d pages, want 2", pageSets-1, pageSets, n)
	}
}

// laneKeys draws one message's keys: runs of lanes in one line (as
// consecutive elements produce), runs that cross into the next line,
// lanes a line apart, and random lanes.
func laneKeys(rng *rand.Rand, n int, line uint64) []uint64 {
	keys := make([]uint64, n)
	base := uint64(rng.Intn(1<<14)) | uint64(rng.Intn(2))<<32
	elem := uint64(1) << rng.Intn(4)
	for i := range keys {
		switch rng.Intn(8) {
		case 0:
			keys[i] = uint64(rng.Intn(1 << 16))
		case 1:
			keys[i] = base + uint64(i)*line
		default:
			keys[i] = base + uint64(i)*elem
		}
	}
	return keys
}

// TestAccessLanesMatchesAccess holds AccessLanes to one Access per key,
// in order, on a twin hierarchy with no level, one level, two levels,
// and a nearest level whose hit latency reaches the memory latency (so
// its hits count as fills). The returned worst latency and fill count
// must equal the per-key walk's, and so must every level's Stats, clock
// and line state and the memory accesses after every message.
func TestAccessLanesMatchesAccess(t *testing.T) {
	l1 := Config{Name: "l1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitNs: 2}
	l2 := Config{Name: "l2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 32, HitNs: 10}
	slow := Config{Name: "slow", SizeBytes: 512, Ways: 1, LineBytes: 16, HitNs: 100}
	const memNs = 100
	cases := []struct {
		name string
		cfgs []Config
	}{
		{"none", nil},
		{"one", []Config{l1}},
		{"two", []Config{l1, l2}},
		{"slow-nearest", []Config{slow, l2}},
	}
	rng := rand.New(rand.NewSource(61))
	for _, tc := range cases {
		bulk, err := NewHierarchy(memNs, tc.cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		each, err := NewHierarchy(memNs, tc.cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		line := uint64(64)
		if len(tc.cfgs) > 0 {
			line = uint64(tc.cfgs[0].LineBytes)
		}
		runs, writes := 0, 0
		for msg := 0; msg < 3000; msg++ {
			if msg == 1500 {
				bulk.Reset()
				each.Reset()
			}
			keys := laneKeys(rng, rng.Intn(17), line)
			write := rng.Intn(2) == 0
			var wantNs float64
			var wantFills uint64
			for i, k := range keys {
				ns := each.Access(k, write)
				if ns > wantNs {
					wantNs = ns
				}
				if ns >= memNs {
					wantFills++
				}
				if i > 0 && k/line == keys[i-1]/line {
					runs++
				}
			}
			if write {
				writes++
			}
			gotNs, gotFills := bulk.AccessLanes(keys, write)
			if gotNs != wantNs || gotFills != wantFills {
				t.Fatalf("%s message %d: AccessLanes = (%v, %d), want (%v, %d)", tc.name, msg, gotNs, gotFills, wantNs, wantFills)
			}
			if bulk.MemAccesses != each.MemAccesses {
				t.Fatalf("%s message %d: memory accesses %d, want %d", tc.name, msg, bulk.MemAccesses, each.MemAccesses)
			}
			for l, c := range bulk.Levels() {
				w := each.Levels()[l]
				if c.Stats() != w.Stats() {
					t.Fatalf("%s message %d: level %d stats %+v, want %+v", tc.name, msg, l, c.Stats(), w.Stats())
				}
				// Same-line runs leave no trace in hits or misses, so
				// compare what they write directly: the clock, the MRU
				// filter's line and every way's tag and stamp.
				if c.clock != w.clock || c.lastLine != w.lastLine || !reflect.DeepEqual(c.pages, w.pages) {
					t.Fatalf("%s message %d: level %d line state differs from per-key walks", tc.name, msg, l)
				}
			}
		}
		if runs == 0 || writes == 0 {
			t.Fatalf("%s: %d same-line lanes and %d write messages; the corpus must have both", tc.name, runs, writes)
		}
	}
}
