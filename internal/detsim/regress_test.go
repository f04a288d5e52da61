package detsim_test

import (
	"errors"
	"math"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/faults"
)

// Regression tests for the replay-path fixes that landed with the
// snippet work. Each pins a bug that was observable before the fix:
// redundant recompilation, silently-resolved range overlaps, panics on
// corrupt recordings, and warmup time vanishing from the report.

// TestCompileCacheReused: a second Run over the same recording must not
// recompile its programs — before the cache, every Run (and every
// parallel snippet worker) paid the full JIT cost again.
func TestCompileCacheReused(t *testing.T) {
	rec, n, _ := record(t, 501, 4)
	detsim.ResetCompileCache()
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rec, []detsim.Range{{From: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	_, misses1, entries := detsim.CompileCacheStats()
	if misses1 == 0 || entries == 0 {
		t.Fatalf("first run compiled nothing (misses %d, entries %d)", misses1, entries)
	}
	sim2, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(rec, []detsim.Range{{From: n - 1, To: n}}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := detsim.CompileCacheStats()
	if misses2 != misses1 {
		t.Errorf("second run recompiled: misses %d -> %d", misses1, misses2)
	}
	if hits2 == 0 {
		t.Error("second run never hit the cache")
	}
}

// TestRunRejectsBadRanges: overlapping ranges, warmup windows crossing
// an earlier detailed range, and degenerate ranges must be refused up
// front as faults.ErrBadConfig. The old linear scan silently resolved
// overlaps first-match-wins and double-ran invocations warmup windows
// reached back over.
func TestRunRejectsBadRanges(t *testing.T) {
	rec, n, _ := record(t, 502, 8)
	if n < 6 {
		t.Skip("schedule too short")
	}
	cases := []struct {
		name   string
		ranges []detsim.Range
	}{
		{"overlap", []detsim.Range{{From: 0, To: 3}, {From: 2, To: 4}}},
		{"duplicate", []detsim.Range{{From: 1, To: 2}, {From: 1, To: 2}}},
		{"warmup crosses detailed", []detsim.Range{{From: 0, To: 2}, {From: 3, To: 4, Warmup: 2}}},
		{"empty", []detsim.Range{{From: 2, To: 2}}},
		{"inverted", []detsim.Range{{From: 3, To: 1}}},
		{"negative start", []detsim.Range{{From: -1, To: 1}}},
		{"negative warmup", []detsim.Range{{From: 2, To: 3, Warmup: -1}}},
		{"negative sample groups", []detsim.Range{{From: 2, To: 3, SampleGroups: -2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(rec, tc.ranges); !errors.Is(err, faults.ErrBadConfig) {
				t.Fatalf("want ErrBadConfig, got %v", err)
			}
		})
	}
	// A warmup window that merely clamps at invocation 0 stays legal.
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rec, []detsim.Range{{From: 1, To: 2, Warmup: 100}}); err != nil {
		t.Fatalf("clamped warmup rejected: %v", err)
	}
}

// TestCorruptRecordingRejected: host data movement with out-of-range
// offsets, and a buffer larger than a surface can be, must surface as
// faults.ErrBadRecording — the copy-buffer path used to panic slicing
// dst.Bytes()[Offset2:Offset2+Size], the write path silently truncated,
// and a 1<<33-byte buffer allocated a 16 MiB page table.
func TestCorruptRecordingRejected(t *testing.T) {
	rec, _, _ := record(t, 503, 3)
	corrupt := func(c cl.APICall) *cofluent.Recording {
		calls := append([]cl.APICall(nil), rec.Calls...)
		// Insert after the buffers exist but before any enqueue consumes
		// them: directly after the original write call.
		at := -1
		for i := range calls {
			if calls[i].Name == cl.CallEnqueueWriteBuffer {
				at = i + 1
				break
			}
		}
		if at < 0 {
			t.Fatal("no write call in recording")
		}
		out := append([]cl.APICall(nil), calls[:at]...)
		out = append(out, c)
		out = append(out, calls[at:]...)
		return &cofluent.Recording{App: rec.App, Calls: out, Programs: rec.Programs}
	}
	cases := []struct {
		name string
		call cl.APICall
	}{
		{"copy dst overflow", cl.APICall{Name: cl.CallEnqueueCopyBuffer, Buffer: 0, Buffer2: 1, Offset: 0, Offset2: 1 << 30, Size: 64}},
		{"copy src overflow", cl.APICall{Name: cl.CallEnqueueCopyBuffer, Buffer: 0, Buffer2: 1, Offset: 1 << 30, Offset2: 0, Size: 64}},
		{"copy negative size", cl.APICall{Name: cl.CallEnqueueCopyBuffer, Buffer: 0, Buffer2: 1, Size: -8}},
		{"copy size past end", cl.APICall{Name: cl.CallEnqueueCopyBuffer, Buffer: 0, Buffer2: 1, Offset: 1 << 11, Size: 1 << 12}},
		{"write offset overflow", cl.APICall{Name: cl.CallEnqueueWriteBuffer, Buffer: 1, Offset: 1 << 30, Payload: []byte{1, 2, 3}}},
		{"write negative offset", cl.APICall{Name: cl.CallEnqueueWriteBuffer, Buffer: 1, Offset: -4, Payload: []byte{1}}},
		{"write payload past end", cl.APICall{Name: cl.CallEnqueueWriteBuffer, Buffer: 1, Offset: (1 << 12) - 2, Payload: []byte{1, 2, 3, 4}}},
		// More bytes than the 32-bit offsets of a send reach: refused
		// before its page table is allocated.
		{"create past the size bound", cl.APICall{Name: cl.CallCreateBuffer, Buffer: 2, Size: 1 << 33}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(corrupt(tc.call), nil); !errors.Is(err, faults.ErrBadRecording) {
				t.Fatalf("want ErrBadRecording, got %v", err)
			}
			// Capture walks the same recording and must refuse identically.
			csim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := csim.Capture(corrupt(tc.call), []detsim.Range{{From: 0, To: 1}}); !errors.Is(err, faults.ErrBadRecording) {
				t.Fatalf("capture: want ErrBadRecording, got %v", err)
			}
		})
	}
}

// TestWarmupTimeConservation: relabeling fast-forward invocations as
// warmup must move their modelled time into WarmupTimeNs, not drop it —
// the report's total modelled time is invariant in the warmup window.
// Before the fix, warmup ran on a private functional path whose time
// was discarded, so adding warmup silently shrank total time (and the
// device clock fell behind, skewing thermal drift for later work).
func TestWarmupTimeConservation(t *testing.T) {
	rec, n, _ := record(t, 504, 8)
	if n < 5 {
		t.Skip("schedule too short")
	}
	run := func(warmup int) *detsim.Report {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(rec, []detsim.Range{{From: n - 1, To: n, Warmup: warmup}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(0)
	warmed := run(3)
	if base.WarmupTimeNs != 0 || base.Warmed != 0 {
		t.Fatalf("baseline has warmup: %+v", base)
	}
	if warmed.Warmed != 3 || warmed.WarmupTimeNs <= 0 {
		t.Fatalf("warmed run: Warmed=%d WarmupTimeNs=%f", warmed.Warmed, warmed.WarmupTimeNs)
	}
	total := func(r *detsim.Report) float64 { return r.FastForwardTimeNs + r.WarmupTimeNs }
	if diff := math.Abs(total(base) - total(warmed)); diff > 1e-9*total(base) {
		t.Errorf("modelled time not conserved: %f (warmup 0) vs %f (warmup 3)",
			total(base), total(warmed))
	}
	if warmed.FastForwarded != base.FastForwarded-3 {
		t.Errorf("fast-forwarded %d, want %d", warmed.FastForwarded, base.FastForwarded-3)
	}
}

// TestWarmupHeatsCachesViaDevice: the dev-routed warmup path must still
// feed the simulated cache hierarchy (detailed ranges after warmup see
// warm caches), pinning that the touch hook survives the reroute.
func TestWarmupHeatsCachesViaDevice(t *testing.T) {
	rec, n, _ := record(t, 505, 8)
	if n < 4 {
		t.Skip("schedule too short")
	}
	run := func(warmup int) *detsim.Report {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(rec, []detsim.Range{{From: n - 1, To: n, Warmup: warmup}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold, warm := run(0), run(3)
	coldAcc, warmAcc := cold.Cache[0].Accesses, warm.Cache[0].Accesses
	if warmAcc <= coldAcc {
		t.Errorf("warmup produced no extra cache accesses: %d vs %d", warmAcc, coldAcc)
	}
}
