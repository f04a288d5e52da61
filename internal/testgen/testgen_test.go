package testgen_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/testgen"
)

// runOn runs a generated program and its driver schedule on a device of
// the given configuration, with no timer hook, and returns the output
// surface's bytes.
func runOn(t *testing.T, cfg device.Config, seed int64, gen testgen.Config) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := testgen.Program(rng, fmt.Sprintf("tg%d", seed), gen)
	sched := testgen.Driver(rng, p, 8, gen)
	dev, err := device.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
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
	}
	got := make([]byte, 1<<12)
	if err := q.EnqueueReadBuffer(out, 0, got); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTimersReachMemory: with Timers on, the timer a kernel reads
// reaches the memory it stores, so the same program run on two device
// configurations, whose clocks differ, leaves different memory when no
// timer hook stands in for the clock. Without Timers the memory does
// not depend on the device.
func TestTimersReachMemory(t *testing.T) {
	a, b := device.IvyBridgeHD4000(), device.HaswellHD4600()
	for seed := int64(1); seed <= 4; seed++ {
		if !bytes.Equal(runOn(t, a, seed, testgen.DefaultConfig()), runOn(t, b, seed, testgen.DefaultConfig())) {
			t.Errorf("seed %d: a timer-free program leaves different memory on two devices", seed)
		}
		if bytes.Equal(runOn(t, a, seed, testgen.FidelityConfig()), runOn(t, b, seed, testgen.FidelityConfig())) {
			t.Errorf("seed %d: a timer-reading program leaves the same memory on two devices: no timer reached it", seed)
		}
	}
}
