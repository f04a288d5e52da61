package cl

import (
	"strings"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

func TestKindOf(t *testing.T) {
	if KindOf(CallEnqueueNDRangeKernel) != KindKernel {
		t.Error("enqueue must be a kernel call")
	}
	syncs := []string{
		CallFinish, CallFlush, CallWaitForEvents, CallEnqueueReadBuffer,
		CallEnqueueCopyBuffer, CallEnqueueReadImage, CallEnqueueCopyImgToBuf,
	}
	if len(syncs) != 7 {
		t.Fatal("the paper lists exactly seven synchronization calls")
	}
	for _, s := range syncs {
		if KindOf(s) != KindSync {
			t.Errorf("%s must be a sync call", s)
		}
	}
	for _, o := range []string{CallSetKernelArg, CallCreateBuffer, CallBuildProgram,
		CallEnqueueWriteBuffer, CallGetDeviceInfo, CallReleaseKernel} {
		if KindOf(o) != KindOther {
			t.Errorf("%s must be an other call", o)
		}
	}
}

// writeOne builds a kernel that stores its arg 0 to out[gid].
func writeOne(t *testing.T) *kernel.Program {
	t.Helper()
	a := asm.NewKernel("writeone", isa.W16)
	v := a.Arg(0)
	out := a.Surface(0)
	addr, vv := a.Temp(), a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Mov(vv, asm.R(v))
	a.Store(out, addr, vv, 4)
	a.End()
	k, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Program("app", k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newCtx(t *testing.T) *Context {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(dev)
}

// recorder is a minimal interceptor for tests.
type recorder struct {
	calls []APICall
	comps []KernelCompletion
}

func (r *recorder) OnAPICall(c *APICall)                 { r.calls = append(r.calls, *c) }
func (r *recorder) OnKernelComplete(c *KernelCompletion) { r.comps = append(r.comps, *c) }

func TestEnqueueDefersUntilSync(t *testing.T) {
	ctx := newCtx(t)
	rec := &recorder{}
	ctx.AddInterceptor(rec)
	q := ctx.CreateQueue()
	buf, err := ctx.CreateBuffer(4 * 16)
	if err != nil {
		t.Fatal(err)
	}
	p := ctx.CreateProgram(writeOne(t))
	if err := p.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := p.CreateKernel("writeone")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueNDRangeKernel(k, 16); err != nil {
		t.Fatal(err)
	}
	if len(rec.comps) != 0 {
		t.Fatal("kernel must not execute before a synchronization call")
	}
	if q.Pending() != 1 {
		t.Fatalf("pending = %d", q.Pending())
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(rec.comps) != 1 {
		t.Fatal("finish must execute the pending kernel")
	}
	if q.Pending() != 0 {
		t.Error("queue must be drained")
	}
	got, _ := buf.Device().ReadU32(0, 1)
	if got[0] != 9 {
		t.Errorf("kernel result = %d, want 9", got[0])
	}
}

// TestArgsSnapshotAtEnqueue: changing an argument after enqueue must not
// affect the already-enqueued invocation.
func TestArgsSnapshotAtEnqueue(t *testing.T) {
	ctx := newCtx(t)
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	if err := p.Build(); err != nil {
		t.Fatal(err)
	}
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 1))
	check(t, k.SetBuffer(0, buf))
	check(t, q.EnqueueNDRangeKernel(k, 16))
	check(t, k.SetArg(0, 2)) // must not affect the queued invocation
	check(t, q.Finish())
	got, _ := buf.Device().ReadU32(0, 1)
	if got[0] != 1 {
		t.Errorf("queued invocation saw later argument: %d", got[0])
	}
}

func TestSevenSyncCallsAllDrain(t *testing.T) {
	prog := writeOne(t)
	drains := []struct {
		name string
		fire func(q *Queue, a, b *Buffer) error
	}{
		{"finish", func(q *Queue, a, b *Buffer) error { return q.Finish() }},
		{"flush", func(q *Queue, a, b *Buffer) error { return q.Flush() }},
		{"wait", func(q *Queue, a, b *Buffer) error { return q.WaitForEvents() }},
		{"read buffer", func(q *Queue, a, b *Buffer) error {
			return q.EnqueueReadBuffer(a, 0, make([]byte, 8))
		}},
		{"read image", func(q *Queue, a, b *Buffer) error {
			return q.EnqueueReadImage(a, 0, make([]byte, 8))
		}},
		{"copy buffer", func(q *Queue, a, b *Buffer) error {
			return q.EnqueueCopyBuffer(a, b, 0, 0, 8)
		}},
		{"copy image to buffer", func(q *Queue, a, b *Buffer) error {
			return q.EnqueueCopyImageToBuffer(a, b, 0, 0, 8)
		}},
	}
	for _, d := range drains {
		ctx := newCtx(t)
		rec := &recorder{}
		ctx.AddInterceptor(rec)
		q := ctx.CreateQueue()
		a, _ := ctx.CreateBuffer(64)
		b, _ := ctx.CreateBuffer(64)
		p := ctx.CreateProgram(prog)
		check(t, p.Build())
		k, _ := p.CreateKernel("writeone")
		check(t, k.SetArg(0, 3))
		check(t, k.SetBuffer(0, a))
		check(t, q.EnqueueNDRangeKernel(k, 16))
		if err := d.fire(q, a, b); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(rec.comps) != 1 {
			t.Errorf("%s: did not drain the queue", d.name)
		}
	}
}

func TestCopySemantics(t *testing.T) {
	ctx := newCtx(t)
	q := ctx.CreateQueue()
	a, _ := ctx.CreateBuffer(64)
	b, _ := ctx.CreateBuffer(64)
	check(t, q.EnqueueWriteBuffer(a, 0, []byte{1, 2, 3, 4}))
	check(t, q.EnqueueCopyBuffer(a, b, 0, 8, 4))
	got := make([]byte, 4)
	if _, err := b.Device().ReadAt(got, 8); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Errorf("copy result = %v", got)
	}
	dst := make([]byte, 4)
	check(t, q.EnqueueReadBuffer(b, 8, dst))
	if dst[0] != 1 {
		t.Errorf("read result = %v", dst)
	}
}

func TestQueueErrors(t *testing.T) {
	ctx := newCtx(t)
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	if err := q.EnqueueNDRangeKernel(k, 0); err == nil {
		t.Error("expected error for zero work size")
	}
	if err := q.EnqueueNDRangeKernel(k, 16); err == nil {
		t.Error("expected error for unbound surface")
	}
	check(t, k.SetBuffer(0, buf))
	if err := q.EnqueueWriteBuffer(buf, 12, make([]byte, 8)); err == nil {
		t.Error("expected out-of-range write error")
	}
	if err := q.EnqueueReadBuffer(buf, 0, make([]byte, 64)); err == nil {
		t.Error("expected out-of-range read error")
	}
	if err := q.EnqueueCopyBuffer(buf, buf, 0, 8, 16); err == nil {
		t.Error("expected out-of-range copy error")
	}
	if err := q.EnqueueCopyBuffer(buf, buf, 0, 8, -4); err == nil {
		t.Error("expected negative-length copy error")
	}
	if err := q.EnqueueCopyImageToBuffer(buf, buf, 0, 8, -4); err == nil {
		t.Error("expected negative-length image copy error")
	}
}

func TestKernelObjectErrors(t *testing.T) {
	ctx := newCtx(t)
	p := ctx.CreateProgram(writeOne(t))
	if _, err := p.CreateKernel("writeone"); err == nil {
		t.Error("expected error creating kernel before build")
	}
	check(t, p.Build())
	if _, err := p.CreateKernel("missing"); err == nil {
		t.Error("expected error for unknown kernel")
	}
	k, _ := p.CreateKernel("writeone")
	if err := k.SetArg(5, 0); err == nil {
		t.Error("expected arg-range error")
	}
	if err := k.SetBuffer(3, nil); err == nil {
		t.Error("expected surface-range error")
	}
}

func TestBuildHookRuns(t *testing.T) {
	ctx := newCtx(t)
	hooked := 0
	ctx.AddBuildHook(func(bin *jit.Binary) (*jit.Binary, error) {
		hooked++
		return bin, nil
	})
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	if hooked != 1 {
		t.Errorf("build hook ran %d times, want 1", hooked)
	}
}

func TestAPISeqMonotonic(t *testing.T) {
	ctx := newCtx(t)
	rec := &recorder{}
	ctx.AddInterceptor(rec)
	ctx.EmitSetupCalls()
	ctx.CreateQueue()
	ctx.QueryDeviceInfo()
	for i := 1; i < len(rec.calls); i++ {
		if rec.calls[i].Seq != rec.calls[i-1].Seq+1 {
			t.Fatalf("non-monotonic sequence at %d", i)
		}
	}
	if len(rec.calls) != 5 {
		t.Errorf("calls = %d, want 5", len(rec.calls))
	}
}

func TestInvocationSeqOrdering(t *testing.T) {
	ctx := newCtx(t)
	rec := &recorder{}
	ctx.AddInterceptor(rec)
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 1))
	check(t, k.SetBuffer(0, buf))
	for i := 0; i < 3; i++ {
		check(t, q.EnqueueNDRangeKernel(k, 16))
	}
	check(t, q.Finish())
	for i, c := range rec.comps {
		if c.InvocationSeq != i {
			t.Errorf("completion %d has seq %d", i, c.InvocationSeq)
		}
	}
}

func TestBuildSurfacesTraceBuffer(t *testing.T) {
	// With a trace buffer installed, a kernel binary rewritten to
	// reference one extra surface must execute successfully.
	ctx := newCtx(t)
	tb, _ := device.NewBuffer(1 << 12)
	ctx.SetTraceBuffer(tb)
	ctx.AddBuildHook(func(bin *jit.Binary) (*jit.Binary, error) {
		k, err := jit.Decode(bin)
		if err != nil {
			return nil, err
		}
		k.NumSurfaces++ // pretend we instrumented it
		return jit.Recompile(k)
	})
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 4))
	check(t, k.SetBuffer(0, buf))
	check(t, q.EnqueueNDRangeKernel(k, 16))
	check(t, q.Finish())
}

func TestBuildHookErrorPropagates(t *testing.T) {
	ctx := newCtx(t)
	ctx.AddBuildHook(func(bin *jit.Binary) (*jit.Binary, error) {
		return nil, errFake
	})
	p := ctx.CreateProgram(writeOne(t))
	if err := p.Build(); err == nil || !strings.Contains(err.Error(), "fake") {
		t.Errorf("expected hook error, got %v", err)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake failure" }

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
