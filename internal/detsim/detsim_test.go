package detsim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/kernel"
	"gtpin/internal/testgen"
)

// record runs a generated program on the functional device under
// CoFluent and returns the recording, the invocation count, and the
// final output-buffer image (recording buffer ID 1).
func record(t testing.TB, seed int64, steps int) (*cofluent.Recording, int, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := testgen.DefaultConfig()
	p := testgen.Program(rng, fmt.Sprintf("det%d", seed), cfg)
	sched := testgen.Driver(rng, p, steps, cfg)

	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	q := ctx.CreateQueue()
	in, _ := ctx.CreateBuffer(1 << 12)
	out, _ := ctx.CreateBuffer(1 << 12)
	data := make([]byte, 1<<12)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := q.EnqueueWriteBuffer(in, 0, data); err != nil {
		t.Fatal(err)
	}
	prog := ctx.CreateProgram(p)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]*cl.Kernel{}
	for _, k := range p.Kernels {
		ko, err := prog.CreateKernel(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(1, out); err != nil {
			t.Fatal(err)
		}
		kernels[k.Name] = ko
	}
	for _, s := range sched {
		ko := kernels[s.Kernel]
		if err := ko.SetArg(0, s.Iters); err != nil {
			t.Fatal(err)
		}
		if err := q.EnqueueNDRangeKernel(ko, s.GWS); err != nil {
			t.Fatal(err)
		}
		if s.Sync {
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	rec, err := cofluent.Record("det", tr, []*kernel.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	return rec, len(tr.Timings()), surfaceBytes(out.Device())
}

// surfaceBytes reads a surface's whole contents.
func surfaceBytes(b *device.Buffer) []byte {
	out := make([]byte, b.Size())
	if _, err := b.ReadAt(out, 0); err != nil {
		panic(err)
	}
	return out
}

// TestDetailedMatchesFunctionalDevice is the cross-simulator equivalence
// property: for random programs, full detailed simulation must produce
// bit-identical memory images to the fast functional device.
func TestDetailedMatchesFunctionalDevice(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rec, n, want := record(t, int64(300+trial), 6)
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(rec, []detsim.Range{{From: 0, To: n}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detailed != n || rep.FastForwarded != 0 {
				t.Fatalf("detailed %d / ff %d, want %d / 0", rep.Detailed, rep.FastForwarded, n)
			}
			got := sim.Buffer(1) // output buffer was created second
			if got == nil {
				t.Fatal("missing output buffer")
			}
			if !bytes.Equal(surfaceBytes(got), want) {
				t.Fatal("detailed simulation diverged from functional device")
			}
			if rep.DetailedInstrs == 0 || rep.DetailedCycles == 0 || rep.DetailedTimeNs <= 0 {
				t.Errorf("degenerate report: %+v", rep)
			}
			if rep.LaneOps <= rep.DetailedInstrs {
				t.Error("detailed simulation should do much more work than one op per instruction")
			}
		})
	}
}

// TestSubsetMatchesFullFunctionally: fast-forwarding outside the detailed
// ranges must preserve the final memory image.
func TestSubsetMatchesFullFunctionally(t *testing.T) {
	rec, n, want := record(t, 41, 9)
	if n < 4 {
		t.Skip("schedule too short")
	}
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranges := []detsim.Range{{From: 1, To: 2}, {From: n - 2, To: n - 1}}
	rep, err := sim.Run(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detailed != 2 || rep.FastForwarded != n-2 {
		t.Errorf("detailed %d / ff %d", rep.Detailed, rep.FastForwarded)
	}
	if !bytes.Equal(surfaceBytes(sim.Buffer(1)), want) {
		t.Fatal("subset simulation diverged from full execution")
	}
	// Per-range reports are aligned and populated.
	if len(rep.Ranges) != 2 {
		t.Fatalf("ranges = %d", len(rep.Ranges))
	}
	var sumT float64
	var sumI uint64
	for i, rr := range rep.Ranges {
		if rr.Invocations != 1 {
			t.Errorf("range %d invocations = %d", i, rr.Invocations)
		}
		if rr.DetailedInstrs == 0 || rr.DetailedTimeNs <= 0 {
			t.Errorf("range %d degenerate: %+v", i, rr)
		}
		sumT += rr.DetailedTimeNs
		sumI += rr.DetailedInstrs
	}
	if sumI != rep.DetailedInstrs {
		t.Errorf("range instrs %d != total %d", sumI, rep.DetailedInstrs)
	}
	if diff := sumT - rep.DetailedTimeNs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("range time %f != total %f", sumT, rep.DetailedTimeNs)
	}
}

// TestEmptyRangesFastForwardsEverything: with no detailed ranges the
// simulator is purely functional.
func TestEmptyRangesFastForwardsEverything(t *testing.T) {
	rec, n, want := record(t, 9, 5)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detailed != 0 || rep.FastForwarded != n {
		t.Errorf("detailed %d / ff %d", rep.Detailed, rep.FastForwarded)
	}
	if !bytes.Equal(surfaceBytes(sim.Buffer(1)), want) {
		t.Fatal("fast-forward diverged")
	}
	if rep.DetailedTimeNs != 0 {
		t.Error("no detailed time expected")
	}
}

// TestCacheStatsPopulated: detailed simulation must exercise the cache
// hierarchy.
func TestCacheStatsPopulated(t *testing.T) {
	rec, n, _ := record(t, 11, 6)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(rec, []detsim.Range{{From: 0, To: n}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cache) != 2 {
		t.Fatalf("cache levels = %d", len(rep.Cache))
	}
	if rep.Cache[0].Accesses == 0 {
		t.Error("L3 saw no accesses")
	}
}

// TestEUScalingImprovesDetailedTime: a wider design must not be slower
// when there are plenty of channel-groups.
func TestEUScalingImprovesDetailedTime(t *testing.T) {
	rec, n, _ := record(t, 21, 6)
	run := func(eus int) float64 {
		cfg := detsim.DefaultConfig()
		cfg.Device = device.IvyBridgeHD4000().WithEUs(eus)
		sim, err := detsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(rec, []detsim.Range{{From: 0, To: n}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.DetailedTimeNs
	}
	if t4, t16 := run(4), run(16); t16 > t4 {
		t.Errorf("16 EUs slower than 4: %f vs %f", t16, t4)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := detsim.DefaultConfig()
	cfg.Device.EUs = 0
	if _, err := detsim.New(cfg); err == nil {
		t.Error("expected error")
	}
}
