package detsim_test

import (
	"testing"

	"gtpin/internal/detsim"
	"gtpin/internal/testgen"
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
// surfaces and the pages its window writes (the images' pages are
// shared, and copied only when written), a fast-forward device and the
// report; its kernels' binaries come decoded from the snippet-kernel
// memo. The window runs two warmup launches and two detailed ones of one
// kernel. The count was 67 when the device decoded the kernel a second
// time and each launch built its own surface slice and touch hook, and
// 49 while every replay decoded its kernels and zeroed whole surfaces.
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
	if n > 32 {
		t.Fatalf("RunSnippet allocates %.0f times per snippet, want at most 32", n)
	}
}

// TestRunSnippetSharedImageAllocs: a replay shares the whole pages of
// its snippet's memory images rather than copying them, so a window
// whose images hold many pages no kernel writes allocates fewer bytes
// than those pages hold. The output surface is 32 pages, of which the
// host fills pages 2 to 31 and the kernels write only the first 512
// bytes; the input page is only read.
func TestRunSnippetSharedImageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	init := make([]byte, 32*pageSize)
	for i := 2 * pageSize; i < len(init); i++ {
		init[i] = byte(i*29+7) | 1
	}
	rec, n := recordOut(t, 8702, 6, testgen.DefaultConfig(), nil, len(init), init)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, []detsim.Range{{From: n - 1, To: n}})
	if err != nil {
		t.Fatal(err)
	}
	// unwritten is what the images' whole pages hold, the output's
	// first page aside.
	unwritten := int64(0)
	for _, b := range snips[0].Buffers {
		for _, p := range b.Image {
			if len(p.Bytes) == pageSize && (b.ID != 1 || p.Offset != 0) {
				unwritten += pageSize
			}
		}
	}
	if unwritten < 31*pageSize {
		t.Fatalf("the images hold %d bytes of whole pages no kernel writes, want the input page and 30 output pages", unwritten)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := sim.RunSnippet(snips[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got >= unwritten {
		t.Fatalf("RunSnippet allocates %d bytes per replay, want fewer than the %d its unwritten image pages hold", got, unwritten)
	}
}

// TestCaptureHitAllocs pins what a capture the memo holds allocates:
// the memo key (the recording's stored fingerprint with the ranges and
// watchdog budget appended, and its string), the clock fold and the
// returned snippets with their slice. It walks nothing, hashes nothing
// and copies no image or code, so the count does not grow with the
// recording, the windows or their memory. It was 9 while every call
// hashed the whole recording into its key.
func TestCaptureHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rec, n, _ := record(t, 8801, 12)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranges := snippetRanges(n)
	if _, err := sim.Capture(rec, ranges); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := sim.Capture(rec, ranges); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Fatalf("a capture hit allocates %.0f times, want at most 5", got)
	}
}
