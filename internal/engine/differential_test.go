package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/kernel"
	"gtpin/internal/testgen"
)

// record runs a generated program on the functional device under
// CoFluent and returns the recording, the invocation count, and the
// final output-buffer image (recording buffer ID 1).
func record(t testing.TB, seed int64, steps int) (*cofluent.Recording, int, []byte) {
	return recordCfg(t, seed, steps, testgen.DefaultConfig(), nil)
}

// recordCfg is record with an explicit generator config and an optional
// deterministic timer hook installed on the recording device. Workloads
// that read the EU timer must supply the hook (and install the same one
// on every replay backend), since live timer values differ per backend.
func recordCfg(t testing.TB, seed int64, steps int, cfg testgen.Config, timer func(uint64) uint32) (*cofluent.Recording, int, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := testgen.Program(rng, fmt.Sprintf("eng%d", seed), cfg)
	sched := testgen.Driver(rng, p, steps, cfg)

	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	dev.SetTimerHook(timer)
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	q := ctx.CreateQueue()
	in, _ := ctx.CreateBuffer(1 << 12)
	out, _ := ctx.CreateBuffer(1 << 12)
	data := make([]byte, 1<<12)
	for i := range data {
		data[i] = byte(i*7 + 3)
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
	rec, err := cofluent.Record("eng", tr, []*kernel.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	return rec, len(tr.Timings()), surfaceBytes(out.Device())
}

// replay runs a recording through one backend configuration with a
// probe attached and returns the probe and the output-buffer image.
func replay(t *testing.T, rec *cofluent.Recording, ranges []detsim.Range) (*engine.Probe, []byte) {
	return replayHook(t, rec, ranges, nil)
}

// replayHook is replay with a deterministic timer hook installed on the
// simulator; it must match the hook the recording device ran with.
func replayHook(t *testing.T, rec *cofluent.Recording, ranges []detsim.Range, timer func(uint64) uint32) (*engine.Probe, []byte) {
	t.Helper()
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetTimerHook(timer)
	probe := engine.NewProbe()
	sim.SetProbe(probe)
	if _, err := sim.Run(rec, ranges); err != nil {
		t.Fatal(err)
	}
	out := sim.Buffer(1)
	if out == nil {
		t.Fatal("missing output buffer")
	}
	return probe, surfaceBytes(out)
}

// diffProfiles asserts two probes observed the same dynamic behaviour:
// identical basic-block vectors per kernel, and therefore identical
// derived opcode-class counts and send byte totals.
func diffProfiles(t *testing.T, wantName, gotName string, want, got *engine.Probe) {
	t.Helper()
	wk, gk := want.Kernels(), got.Kernels()
	if len(wk) != len(gk) {
		t.Fatalf("%s saw %d kernels, %s saw %d", wantName, len(wk), gotName, len(gk))
	}
	for name, wp := range wk {
		gp, ok := gk[name]
		if !ok {
			t.Fatalf("%s never executed kernel %s", gotName, name)
		}
		if len(wp.BlockCounts) != len(gp.BlockCounts) {
			t.Fatalf("kernel %s: block count lengths differ (%d vs %d)", name, len(wp.BlockCounts), len(gp.BlockCounts))
		}
		for b := range wp.BlockCounts {
			if wp.BlockCounts[b] != gp.BlockCounts[b] {
				t.Errorf("kernel %s block %d: %s counted %d, %s counted %d",
					name, b, wantName, wp.BlockCounts[b], gotName, gp.BlockCounts[b])
			}
		}
		wd, gd := wp.Derived(), gp.Derived()
		if wd != gd {
			t.Errorf("kernel %s: derived stats diverged:\n%s: %+v\n%s: %+v", name, wantName, wd, gotName, gd)
		}
		if wd.Instrs == 0 {
			t.Errorf("kernel %s: degenerate profile (zero instructions)", name)
		}
	}
}

// TestDifferentialBackends is the engine's differential fuzz property:
// a randomly generated program replayed through the functional device
// backend (fast-forward, engine.RunGroup) and through the detailed
// backend (engine.RunGroupDetailed) must produce identical dynamic
// basic-block vectors, opcode-class counts, send byte totals, and
// memory images. Any interpreter divergence between the two loops —
// predication, control flow, operand evaluation, send payloads — shows
// up here as a block-count or image mismatch.
func TestDifferentialBackends(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rec, n, want := record(t, int64(7100+trial), 6)

			funcProbe, funcImg := replay(t, rec, nil)
			detProbe, detImg := replay(t, rec, []detsim.Range{{From: 0, To: n}})

			if !bytes.Equal(funcImg, want) {
				t.Fatal("functional backend diverged from the recording device")
			}
			if !bytes.Equal(detImg, want) {
				t.Fatal("detailed backend diverged from the recording device")
			}
			diffProfiles(t, "functional", "detailed", funcProbe, detProbe)
		})
	}
}

// TestDifferentialMixedRanges replays with a detailed range covering
// only part of the program, so a single replay exercises both loops;
// the combined profile must still match the pure-functional one.
func TestDifferentialMixedRanges(t *testing.T) {
	rec, n, want := record(t, 7200, 8)
	if n < 2 {
		t.Skipf("recording too short (%d invocations)", n)
	}
	funcProbe, funcImg := replay(t, rec, nil)
	mixProbe, mixImg := replay(t, rec, []detsim.Range{{From: n / 2, To: n}})

	if !bytes.Equal(funcImg, want) || !bytes.Equal(mixImg, want) {
		t.Fatal("mixed-range replay diverged from the recording device")
	}
	diffProfiles(t, "functional", "mixed", funcProbe, mixProbe)
}

// stepTimer returns a deterministic stateful timer hook: each MsgTimer
// read observes a strictly advancing value regardless of backend, so
// timer-dependent results compare equal across backends exactly when
// the backends execute the same timer sends in the same order.
func stepTimer() func(uint64) uint32 {
	n := uint32(0)
	return func(uint64) uint32 {
		n += 0x9E3779B1
		return n
	}
}

// TestDifferentialTimerPredOff extends the differential property to the
// interpreter-fidelity stressors: workloads that read the EU timer into
// stored results and run fully-predicated-off regions (including
// predicated-off loads). With the same deterministic timer hook
// installed on the recording device and on every replay backend, the
// functional, detailed, and mixed-range replays must still reproduce
// identical memory images and dynamic profiles.
func TestDifferentialTimerPredOff(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rec, n, want := recordCfg(t, int64(7400+trial), 6, testgen.FidelityConfig(), stepTimer())

			funcProbe, funcImg := replayHook(t, rec, nil, stepTimer())
			detProbe, detImg := replayHook(t, rec, []detsim.Range{{From: 0, To: n}}, stepTimer())

			if !bytes.Equal(funcImg, want) {
				t.Fatal("functional backend diverged from the recording device on a timer/pred-off workload")
			}
			if !bytes.Equal(detImg, want) {
				t.Fatal("detailed backend diverged from the recording device on a timer/pred-off workload")
			}
			diffProfiles(t, "functional", "detailed", funcProbe, detProbe)

			if n >= 2 {
				mixProbe, mixImg := replayHook(t, rec, []detsim.Range{{From: n / 2, To: n}}, stepTimer())
				if !bytes.Equal(mixImg, want) {
					t.Fatal("mixed-range replay diverged on a timer/pred-off workload")
				}
				diffProfiles(t, "functional", "mixed", funcProbe, mixProbe)
			}
		})
	}
}

// statsCollector is a cl.Interceptor summing ground-truth ExecStats.
type statsCollector struct {
	instrs, read, written uint64
}

func (c *statsCollector) OnAPICall(*cl.APICall) {}
func (c *statsCollector) OnKernelComplete(comp *cl.KernelCompletion) {
	c.instrs += comp.Stats.Instrs
	c.read += comp.Stats.BytesRead
	c.written += comp.Stats.BytesWritten
}

// TestProbeMatchesDeviceStats cross-checks the probe's derived totals
// against the device's directly measured ExecStats on the recording
// device itself: the BBV x static-block identity must reproduce the
// ground-truth dynamic instruction count and send byte totals.
func TestProbeMatchesDeviceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7300))
	cfg := testgen.DefaultConfig()
	p := testgen.Program(rng, "probe", cfg)
	sched := testgen.Driver(rng, p, 5, cfg)

	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	probe := engine.NewProbe()
	dev.SetProbe(probe)

	ctx := cl.NewContext(dev)
	truth := &statsCollector{}
	ctx.AddInterceptor(truth)
	q := ctx.CreateQueue()
	in, _ := ctx.CreateBuffer(1 << 12)
	out, _ := ctx.CreateBuffer(1 << 12)
	prog := ctx.CreateProgram(p)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sched {
		ko, err := prog.CreateKernel(s.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(1, out); err != nil {
			t.Fatal(err)
		}
		if err := ko.SetArg(0, s.Iters); err != nil {
			t.Fatal(err)
		}
		if err := q.EnqueueNDRangeKernel(ko, s.GWS); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	var got engine.DerivedStats
	for _, kp := range probe.Kernels() {
		d := kp.Derived()
		got.Instrs += d.Instrs
		got.BytesRead += d.BytesRead
		got.BytesWritten += d.BytesWritten
	}
	if got.Instrs != truth.instrs || got.BytesRead != truth.read || got.BytesWritten != truth.written {
		t.Fatalf("probe derived (instrs %d, read %d, written %d), device measured (instrs %d, read %d, written %d)",
			got.Instrs, got.BytesRead, got.BytesWritten, truth.instrs, truth.read, truth.written)
	}
}
