package engine

import "testing"

func key(surface, addr uint32) uint64 { return uint64(surface)<<32 | uint64(addr) }

func TestTouchSetObserve(t *testing.T) {
	ts := NewTouchSet(2)
	ts.Observe([]uint64{key(0, 16)}, false)
	ts.Observe([]uint64{key(1, 0), key(1, 8)}, true)
	ts.Observe(nil, true)

	if !ts.Read(0) || ts.Written(0) {
		t.Errorf("surface 0: read=%v written=%v, want read-only", ts.Read(0), ts.Written(0))
	}
	if ts.Read(1) || !ts.Written(1) {
		t.Errorf("surface 1: read=%v written=%v, want write-only", ts.Read(1), ts.Written(1))
	}
	if !ts.Touched(0) || !ts.Touched(1) {
		t.Error("both surfaces should be touched")
	}
	if ts.Touched(2) || ts.Touched(-1) {
		t.Error("untouched and out-of-range surfaces must report false")
	}
	if r, w := ts.Counts(); r != 1 || w != 2 {
		t.Errorf("counts = %d reads / %d writes, want 1/2", r, w)
	}
}

func TestTouchSetGrows(t *testing.T) {
	ts := NewTouchSet(1)
	ts.Observe([]uint64{key(5, 4)}, true)
	if ts.Len() != 6 {
		t.Fatalf("len = %d, want 6", ts.Len())
	}
	if !ts.Written(5) || ts.Read(5) {
		t.Error("surface 5 should be write-touched after growth")
	}
	if ts.Touched(0) {
		t.Error("surface 0 untouched")
	}
}

// TestTouchSetAsEnvHook: the Observe method satisfies the Env.Touch
// contract — installing it on an Env and running a group records the
// surfaces the kernel's sends access. Exercised end-to-end by the detsim
// snippet capture tests; here we only pin the signature compatibility.
func TestTouchSetAsEnvHook(t *testing.T) {
	var env Env
	ts := NewTouchSet(0)
	env.Touch = ts.Observe
	env.Touch([]uint64{key(3, 12)}, false)
	if !ts.Read(3) {
		t.Error("hook wiring lost the observation")
	}
}
