package detsim_test

import (
	"testing"

	"gtpin/internal/detsim"
)

// TestNewAllocs bounds what building a simulator allocates. Snippet
// replay builds a fresh simulator for every interval, so its cost must
// follow the cache lines a run touches, not the modelled cache size:
// the HD 4000's L3 and LLC hold 1 MiB of line state, which a simulator
// allocates page by page as its accesses reach it.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := detsim.New(detsim.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("detsim.New allocates %d bytes, want under %d", got, 64<<10)
	}
}

// TestRunSnippetAllocs pins what replaying one snippet allocates: its
// surfaces, one decode of each kernel, a fast-forward device and the
// report. The window runs two warmup launches and two detailed ones of
// one kernel. The count was 67 when the device decoded the kernel a
// second time and each launch built its own surface slice and touch
// hook.
func TestRunSnippetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rec, _, _ := record(t, 8801, 12)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, []detsim.Range{{From: 4, To: 6, Warmup: 2}})
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := sim.RunSnippet(snips[0]); err != nil {
			t.Fatal(err)
		}
	})
	if n > 49 {
		t.Fatalf("RunSnippet allocates %.0f times per snippet, want at most 49", n)
	}
}
