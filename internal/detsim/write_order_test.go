package detsim_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// copySpinKernel copies in[gid] to out[gid], 4-byte elements, and then
// spins in[gid] times. A CoFluent replay gives no access to its
// surfaces, so its dynamic instruction count is how it shows which value
// the copy read.
func copySpinKernel() *kernel.Kernel {
	a := asm.NewKernel("copy", isa.W8)
	in, out := a.Surface(0), a.Surface(1)
	addr, v, i := a.Temp(), a.Temp(), a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, in, 4)
	a.Store(out, addr, v, 4)
	a.MovI(i, 0)
	a.Label("spin")
	a.AddI(i, i, 1)
	a.Cmp(isa.CondLT, asm.R(i), asm.R(v))
	a.Br(isa.BranchAny, "spin")
	a.End()
	return a.MustBuild()
}

// TestHostWriteWaitsForPendingKernels: the queue is in order, so a host
// write enqueued behind a kernel lands after the kernel has run, on
// every interpreter of the recording. The host writes 1s to in, enqueues
// a copy of in to out, writes 2s to in and finishes: the device, Run,
// the window's RunSnippet and a CoFluent replay on a fresh device all
// leave 1s in out.
func TestHostWriteWaitsForPendingKernels(t *testing.T) {
	const items = 16
	fill := func(v uint32) []byte {
		b := make([]byte, 4*items)
		for i := 0; i < items; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	want := fill(1)

	p := asm.MustProgram("order", copySpinKernel())
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	q := ctx.CreateQueue()
	in, _ := ctx.CreateBuffer(4 * items)
	out, _ := ctx.CreateBuffer(4 * items)
	prog := ctx.CreateProgram(p)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetBuffer(0, in); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBuffer(1, out); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueWriteBuffer(in, 0, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueNDRangeKernel(k, items); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueWriteBuffer(in, 0, fill(2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	rec, err := cofluent.Record("order", tr, []*kernel.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	check := func(who string, b *device.Buffer) {
		t.Helper()
		if got := surfaceBytes(b); !bytes.Equal(got, want) {
			t.Errorf("%s leaves % x in out, want % x", who, got, want)
		}
	}
	check("the device", out.Device())

	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rec, nil); err != nil {
		t.Fatal(err)
	}
	check("Run", sim.Buffer(out.ID))

	snips, err := sim.Capture(rec, []detsim.Range{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSnippet(snips[0]); err != nil {
		t.Fatal(err)
	}
	check("RunSnippet", sim.Buffer(out.ID))

	dev2, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := rec.Replay(dev2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr2.Timings()[0].Instrs, tr.Timings()[0].Instrs; got != want {
		t.Errorf("the CoFluent replay's copy ran %d instructions, the device's %d: it read another value", got, want)
	}
}
