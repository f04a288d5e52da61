package detsim_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/faults"
	"gtpin/internal/obs"
)

// TestCaptureStopsAtLastWindow: Capture executes the recording only up
// to its last window's end, so what comes after can neither cost it
// time nor change its snippets, while Run still walks, and rejects, all
// of it.
func TestCaptureStopsAtLastWindow(t *testing.T) {
	rec, n, _ := record(t, 8801, 12)
	if n < 8 {
		t.Fatalf("schedule too short: %d invocations", n)
	}
	ranges := []detsim.Range{{From: 1, To: 2, Warmup: 1}, {From: 4, To: 5, Warmup: 2}}
	last := 5 // max(To)
	capture := func(t *testing.T, rec *cofluent.Recording, ranges []detsim.Range) ([]*detsim.Snippet, error) {
		t.Helper()
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Capture(rec, ranges)
	}

	t.Run("dispatches", func(t *testing.T) {
		// Only a capture the memo does not hold walks the recording.
		detsim.ResetCompileCache()
		dispatches := obs.DefaultCounter("engine_dispatches_total", "")
		before := dispatches.Load()
		if _, err := capture(t, rec, ranges); err != nil {
			t.Fatal(err)
		}
		if got := dispatches.Load() - before; got != uint64(last) {
			t.Fatalf("capture of windows ending at invocation %d ran %d of %d dispatches", last, got, n)
		}
	})

	t.Run("faults after the last window", func(t *testing.T) {
		// Right after the last window's last enqueue: an out-of-bounds
		// write and an enqueue of a kernel the recording never created.
		at, inv := -1, 0
		for i, c := range rec.Calls {
			if c.Name == cl.CallEnqueueNDRangeKernel {
				if inv == last-1 {
					at = i + 1
					break
				}
				inv++
			}
		}
		if at < 0 {
			t.Fatal("no enqueue for the last window")
		}
		calls := slices.Clone(rec.Calls[:at])
		calls = append(calls,
			cl.APICall{Name: cl.CallEnqueueWriteBuffer, Buffer: 1, Offset: 1 << 30, Payload: []byte{1, 2, 3}},
			cl.APICall{Name: cl.CallEnqueueNDRangeKernel, KID: 999, GWS: 16})
		calls = append(calls, rec.Calls[at:]...)
		bad := &cofluent.Recording{App: rec.App, Calls: calls, Programs: rec.Programs}

		want, err := capture(t, rec, ranges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := capture(t, bad, ranges)
		if err != nil {
			t.Fatalf("capture failed on a fault after its last window: %v", err)
		}
		for i := range want {
			w, err := want[i].Encode()
			if err != nil {
				t.Fatal(err)
			}
			g, err := got[i].Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w, g) {
				t.Errorf("window %d: snippet differs from the clean recording's", i)
			}
		}

		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(bad, ranges); !errors.Is(err, faults.ErrBadRecording) {
			t.Fatalf("Run: want ErrBadRecording, got %v", err)
		}
	})

	t.Run("range past the end", func(t *testing.T) {
		past := append(slices.Clone(ranges), detsim.Range{From: n, To: n + 1})
		if _, err := capture(t, rec, past); !errors.Is(err, faults.ErrBadConfig) {
			t.Fatalf("want ErrBadConfig, got %v", err)
		}
	})
}
