package cl

import (
	"errors"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// loopProgram holds "loop": for i in 0..arg0 { sum += i }; out[gid] = sum.
// The trip count scales the dynamic instruction count, which the watchdog
// tests use to make chosen enqueues exceed their budget.
func loopProgram(t *testing.T) *kernel.Program {
	t.Helper()
	k := &kernel.Kernel{
		Name: "loop", SIMD: isa.W16, NumArgs: 1, NumSurfaces: 1,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{
				{Op: isa.OpMovi, Width: isa.W16, Dst: 20, Src0: isa.Imm(0)},
				{Op: isa.OpMovi, Width: isa.W16, Dst: 21, Src0: isa.Imm(0)},
				{Op: isa.OpJmp, Width: isa.W16, Target: 1},
			}},
			{ID: 1, Instrs: []isa.Instruction{
				{Op: isa.OpAdd, Width: isa.W16, Dst: 21, Src0: isa.R(21), Src1: isa.R(20)},
				{Op: isa.OpAdd, Width: isa.W16, Dst: 20, Src0: isa.R(20), Src1: isa.Imm(1)},
				{Op: isa.OpCmp, Width: isa.W16, Cond: isa.CondLT, Src0: isa.R(20), Src1: isa.R(kernel.ArgReg(0))},
				{Op: isa.OpBr, Width: isa.W16, BrMode: isa.BranchAny, Target: 1},
			}},
			{ID: 2, Instrs: []isa.Instruction{
				{Op: isa.OpShl, Width: isa.W16, Dst: 22, Src0: isa.R(kernel.GIDReg), Src1: isa.Imm(2)},
				{Op: isa.OpSend, Width: isa.W16, Src0: isa.R(22), Src1: isa.R(21),
					Msg: isa.MsgDesc{Kind: isa.MsgStore, Surface: 0, ElemBytes: 4}},
				{Op: isa.OpEnd, Width: isa.W16},
			}},
		},
	}
	p := &kernel.Program{Name: "looper", Kernels: []*kernel.Kernel{k}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// faultyCtx builds a context whose device injects faults at the given
// rates and seed.
func faultyCtx(t *testing.T, seed int64, rates faults.Rates) (*Context, *faults.Injector) {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(seed, rates)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultInjector(inj)
	return NewContext(dev), inj
}

// findSeed scans for an injector seed whose per-attempt draw pattern for
// the named kernel matches want (true = the probe fires on that attempt).
func findSeed(t *testing.T, rates faults.Rates, kernelName string, probe func(*faults.Invocation) bool, want []bool) int64 {
	t.Helper()
scan:
	for seed := int64(1); seed < 4096; seed++ {
		inj, err := faults.NewInjector(seed, rates)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if probe(inj.BeginInvocation(kernelName, 0)) != w {
				continue scan
			}
		}
		return seed
	}
	t.Fatal("no seed under 4096 draws the wanted fault pattern")
	return 0
}

func TestTransientFaultRetriedToSuccess(t *testing.T) {
	// First attempt corrupts, second is clean: the drain must succeed with
	// the retry recorded and the memory image intact.
	seed := findSeed(t, faults.Rates{Corrupt: 0.5}, "writeone",
		func(v *faults.Invocation) bool { return v.CorruptResult() }, []bool{true, false})
	ctx, inj := faultyCtx(t, seed, faults.Rates{Corrupt: 0.5})
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 7))
	check(t, k.SetBuffer(0, buf))
	ev, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)
	check(t, q.Finish())

	if !ev.Complete() {
		t.Fatal("event must complete after the retried drain")
	}
	st, _ := ev.Stats()
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one fault, one retry)", st.Attempts)
	}
	if st.Degraded {
		t.Error("a transient retry must not degrade the device")
	}
	if inj.Stats().Corruptions != 1 {
		t.Errorf("injector stats = %+v, want exactly one corruption", inj.Stats())
	}
	got, _ := buf.Device().ReadU32(0, 1)
	if got[0] != 7 {
		t.Errorf("result = %d after retry, want 7", got[0])
	}
}

func TestRetriesExhaustedSurfacesTypedError(t *testing.T) {
	// Corruption on every attempt and no degradation: the drain must fail
	// with a KernelExecError wrapping the transient sentinel.
	ctx, _ := faultyCtx(t, 1, faults.Rates{Corrupt: 1})
	ctx.SetResilience(Resilience{MaxRetries: 2, Degrade: false})
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 1))
	check(t, k.SetBuffer(0, buf))
	check(t, q.EnqueueNDRangeKernel(k, 16))
	err := q.Finish()
	var kerr *KernelExecError
	if !errors.As(err, &kerr) {
		t.Fatalf("err = %v, want *KernelExecError", err)
	}
	if kerr.Kernel != "writeone" || kerr.Attempts != 3 {
		t.Errorf("kerr = %+v, want writeone after 3 attempts", kerr)
	}
	if !errors.Is(err, faults.ErrCorruptResult) {
		t.Error("the taxonomy sentinel must survive the wrap chain")
	}
}

func TestHangDegradesAndSucceeds(t *testing.T) {
	// The primary attempt hangs; the degraded re-execution draws clean and
	// must complete with Degraded recorded.
	seed := findSeed(t, faults.Rates{Hang: 0.5}, "writeone",
		func(v *faults.Invocation) bool { return v.Hang() }, []bool{true, false})
	ctx, inj := faultyCtx(t, seed, faults.Rates{Hang: 0.5})
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 5))
	check(t, k.SetBuffer(0, buf))
	ev, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)
	check(t, q.Finish())

	if !ev.Complete() {
		t.Fatal("event must complete via degradation")
	}
	st, _ := ev.Stats()
	if !st.Degraded {
		t.Error("stats must record the degraded re-execution")
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
	if inj.Stats().Hangs != 1 {
		t.Errorf("injector stats = %+v", inj.Stats())
	}
	got, _ := buf.Device().ReadU32(0, 1)
	if got[0] != 5 {
		t.Errorf("degraded result = %d, want 5", got[0])
	}
}

// TestInOrderSemanticsUnderPermanentFailure is the in-order queue contract
// under failure: with kernels A, B, C enqueued and B failing permanently
// mid-drain, A's event completes, B's carries the classified error, C stays
// pending for the next synchronization call, and the drain error identifies
// B by kernel name and enqueue sequence.
func TestInOrderSemanticsUnderPermanentFailure(t *testing.T) {
	dev, err := device.New(device.IvyBridgeHD4000())
	check(t, err)
	// Budget fits the short trips (46 instructions per group) but not the
	// long one; degradation shares the budget, so kernel B fails on both
	// configurations — a permanent failure.
	dev.SetWatchdog(500)
	ctx := NewContext(dev)
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(loopProgram(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("loop")
	check(t, k.SetBuffer(0, buf))

	check(t, k.SetArg(0, 10)) // A: short
	evA, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)
	check(t, k.SetArg(0, 100000)) // B: exceeds the watchdog budget
	evB, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)
	check(t, k.SetArg(0, 20)) // C: short
	evC, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)

	drainErr := q.Finish()
	if drainErr == nil {
		t.Fatal("the drain must fail at kernel B")
	}
	var kerr *KernelExecError
	if !errors.As(drainErr, &kerr) {
		t.Fatalf("drain error = %v, want *KernelExecError", drainErr)
	}
	if kerr.Kernel != "loop" {
		t.Errorf("failing kernel = %q", kerr.Kernel)
	}
	if kerr.EnqueueSeq <= 0 {
		t.Errorf("enqueue seq = %d, must identify B's position in the API stream", kerr.EnqueueSeq)
	}
	if !errors.Is(drainErr, faults.ErrWatchdogTimeout) {
		t.Errorf("drain error must classify as watchdog timeout: %v", drainErr)
	}
	if !kerr.Degraded {
		t.Error("the policy must have tried the degraded configuration first")
	}

	// A completed; B failed with the same classified error; C never ran.
	if !evA.Complete() {
		t.Error("A must have completed before the failure")
	}
	if evB.Complete() {
		t.Error("B must not be complete")
	}
	if !errors.Is(evB.Err(), faults.ErrWatchdogTimeout) {
		t.Errorf("B's event error = %v", evB.Err())
	}
	if evC.Complete() || evC.Err() != nil {
		t.Error("C must still be pending, untouched by B's failure")
	}
	if q.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (only C)", q.Pending())
	}

	// The next synchronization call completes C: the failed command was
	// discarded, not the queue.
	check(t, q.Finish())
	if !evC.Complete() {
		t.Error("C must complete on the next drain")
	}
}

func TestBuildRetriesTransientJITFault(t *testing.T) {
	// One transient JIT failure, then success: Build must absorb it.
	seed := int64(0)
	for s := int64(1); s < 4096; s++ {
		inj, _ := faults.NewInjector(s, faults.Rates{JIT: 0.5})
		if inj.JITFault("writeone") && !inj.JITFault("writeone") {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed found")
	}
	ctx, inj := faultyCtx(t, seed, faults.Rates{JIT: 0.5})
	p := ctx.CreateProgram(writeOne(t))
	if err := p.Build(); err != nil {
		t.Fatalf("build must retry the transient JIT fault: %v", err)
	}
	if inj.Stats().JITFaults != 1 {
		t.Errorf("injector stats = %+v", inj.Stats())
	}
}

func TestBuildSurfacesPersistentJITFault(t *testing.T) {
	ctx, _ := faultyCtx(t, 1, faults.Rates{JIT: 1})
	p := ctx.CreateProgram(writeOne(t))
	err := p.Build()
	if !errors.Is(err, faults.ErrJITTransient) {
		t.Fatalf("build error = %v, want ErrJITTransient after exhausted retries", err)
	}
}

func TestEventErrorsUseTaxonomy(t *testing.T) {
	ctx := newCtx(t)
	q := ctx.CreateQueue()
	buf, _ := ctx.CreateBuffer(4 * 16)
	p := ctx.CreateProgram(writeOne(t))
	check(t, p.Build())
	k, _ := p.CreateKernel("writeone")
	check(t, k.SetArg(0, 1))
	check(t, k.SetBuffer(0, buf))
	ev, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
	check(t, err)
	if _, perr := ev.ProfilingTimeNs(); !errors.Is(perr, faults.ErrEventNotComplete) {
		t.Errorf("profiling before sync = %v, want ErrEventNotComplete", perr)
	}
	foreign := &Event{kernel: "other"}
	if werr := q.WaitForEvents(foreign); !errors.Is(werr, faults.ErrEventNotComplete) {
		t.Errorf("waiting a foreign event = %v, want ErrEventNotComplete", werr)
	}
	if !ev.Complete() {
		t.Error("the wait drained the queue; our event must be complete")
	}
	if _, perr := ev.ProfilingTimeNs(); perr != nil {
		t.Errorf("profiling after sync: %v", perr)
	}
}
