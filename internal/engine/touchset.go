package engine

// TouchSet accumulates which surfaces a stretch of execution touched,
// and how. Its Observe method has the Env.Touch hook signature, so a
// backend can install it around one dispatch (or a whole window of
// them) and afterwards ask which bound surfaces were actually read or
// written — the observer detsim's snippet capture uses to trim
// checkpoint memory images down to the surfaces an interval really
// needs.
//
// Keys follow the engine's send convention: surface index in the high
// 32 bits, byte address in the low 32. A TouchSet is not safe for
// concurrent use, matching the single-goroutine engine.
type TouchSet struct {
	read    []bool
	written []bool
	reads   uint64
	writes  uint64
}

// NewTouchSet creates a touch set sized for n bound surfaces. Observing
// a higher surface index grows the set, so n is a capacity hint, not a
// bound.
func NewTouchSet(n int) *TouchSet {
	return &TouchSet{read: make([]bool, n), written: make([]bool, n)}
}

// Observe records one message's element accesses. It has the
// Env.Touch signature: each key is surface<<32|addr, and write
// distinguishes stores (and atomics, which also read) from loads.
func (t *TouchSet) Observe(keys []uint64, write bool) {
	for _, k := range keys {
		s := int(k >> 32)
		if s >= len(t.read) {
			grown := make([]bool, s+1)
			copy(grown, t.read)
			t.read = grown
			grown = make([]bool, s+1)
			copy(grown, t.written)
			t.written = grown
		}
		if write {
			t.written[s] = true
		} else {
			t.read[s] = true
		}
	}
	if write {
		t.writes += uint64(len(keys))
	} else {
		t.reads += uint64(len(keys))
	}
}

// Touched reports whether the surface was accessed at all.
func (t *TouchSet) Touched(surface int) bool {
	return t.Read(surface) || t.Written(surface)
}

// Read reports whether the surface was read.
func (t *TouchSet) Read(surface int) bool {
	return surface >= 0 && surface < len(t.read) && t.read[surface]
}

// Written reports whether the surface was written.
func (t *TouchSet) Written(surface int) bool {
	return surface >= 0 && surface < len(t.written) && t.written[surface]
}

// Len returns the number of surface slots the set currently covers.
func (t *TouchSet) Len() int { return len(t.read) }

// Counts returns the total element reads and writes observed.
func (t *TouchSet) Counts() (reads, writes uint64) { return t.reads, t.writes }
