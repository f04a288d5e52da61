package device

import (
	"math/rand"
	"testing"

	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

func TestBufferRoundTrip(t *testing.T) {
	b, err := NewBuffer(100) // rounds up to 104
	if err != nil {
		t.Fatal(err)
	}
	if b.Size()%8 != 0 || b.Size() < 100 {
		t.Errorf("size = %d", b.Size())
	}
	if err := b.WriteU32(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadU32(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ReadU32 = %v", got)
	}
	if err := b.WriteU64(8, 0xDEADBEEFCAFED00D); err != nil {
		t.Fatal(err)
	}
	v, err := b.ReadU64(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFED00D {
		t.Errorf("ReadU64 = %#x", v)
	}
}

func TestBufferBoundsChecks(t *testing.T) {
	b, _ := NewBuffer(16)
	if err := b.WriteU32(16, 1); err == nil {
		t.Error("expected out-of-bounds write error")
	}
	if _, err := b.ReadU32(-4, 1); err == nil {
		t.Error("expected negative-offset error")
	}
	if _, err := b.ReadU64(12); err == nil {
		t.Error("expected out-of-bounds u64 read error")
	}
	if _, err := NewBuffer(0); err == nil {
		t.Error("expected error for zero-size buffer")
	}
}

func TestBufferElemAccess(t *testing.T) {
	b, _ := NewBuffer(64)
	b.StoreElem(0, 4, 0x11223344)
	if got := b.LoadElem(0, 4); got != 0x11223344 {
		t.Errorf("elem4 = %#x", got)
	}
	b.StoreElem(8, 1, 0x1FF) // truncates
	if got := b.LoadElem(8, 1); got != 0xFF {
		t.Errorf("elem1 = %#x", got)
	}
	b.StoreElem(16, 2, 0x12345)
	if got := b.LoadElem(16, 2); got != 0x2345 {
		t.Errorf("elem2 = %#x", got)
	}
	b.StoreElem(24, 8, 0xAABBCCDDEEFF0011)
	if got := b.LoadElem(24, 8); got != 0xAABBCCDDEEFF0011 {
		t.Errorf("elem8 = %#x", got)
	}
	// Device offsets wrap instead of faulting.
	b.StoreElem(uint32(b.Size())+4, 4, 7)
	if got := b.LoadElem(uint32(b.Size())+4, 4); got != 7 {
		t.Errorf("wrapped access = %d", got)
	}
	if old := b.AtomicAdd(32, 8, 5); old != 0 {
		t.Errorf("atomic old = %d", old)
	}
	if old := b.AtomicAdd(32, 8, 5); old != 5 {
		t.Errorf("atomic old = %d", old)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, preset := range []Config{IvyBridgeHD4000(), HaswellHD4600()} {
		if err := preset.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", preset.Name, err)
		}
	}
	bad := []func(Config) Config{
		func(c Config) Config { c.EUs = 0; return c },
		func(c Config) Config { c.EUs = 15; return c }, // not divisible by 2 subslices
		func(c Config) Config { c.ThreadsPerEU = 0; return c },
		func(c Config) Config { c.FreqMHz = 0; return c },
		func(c Config) Config { c.MemGBps = 0; return c },
		func(c Config) Config { c.IssueRate = 0; return c },
	}
	for i, mutate := range bad {
		if err := mutate(IvyBridgeHD4000()).Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if IvyBridgeHD4000().HWThreads() != 128 {
		t.Error("HD4000 must have 128 hardware threads")
	}
	if HaswellHD4600().EUs != 20 {
		t.Error("HD4600 must have 20 EUs")
	}
}

func TestConfigVariants(t *testing.T) {
	c := IvyBridgeHD4000().WithFrequency(350)
	if c.FreqMHz != 350 {
		t.Error("WithFrequency")
	}
	c2 := IvyBridgeHD4000().WithEUs(32)
	if c2.EUs != 32 {
		t.Error("WithEUs")
	}
}

// buildOpKernel compiles a one-op kernel: load a and b, apply op, store.
func buildOpKernel(t *testing.T, op isa.Opcode, fn isa.MathFn) *jit.Binary {
	t.Helper()
	k := &kernel.Kernel{
		Name: "op", SIMD: isa.W16, NumSurfaces: 3,
		Blocks: []*kernel.Block{{ID: 0, Instrs: []isa.Instruction{
			{Op: isa.OpShl, Width: isa.W16, Dst: 20, Src0: isa.R(kernel.GIDReg), Src1: isa.Imm(2)},
			{Op: isa.OpSend, Width: isa.W16, Dst: 21, Src0: isa.R(20),
				Msg: isa.MsgDesc{Kind: isa.MsgLoad, Surface: 0, ElemBytes: 4}},
			{Op: isa.OpSend, Width: isa.W16, Dst: 22, Src0: isa.R(20),
				Msg: isa.MsgDesc{Kind: isa.MsgLoad, Surface: 1, ElemBytes: 4}},
			{Op: op, Width: isa.W16, Fn: fn, Dst: 23, Src0: isa.R(21), Src1: isa.R(22), Src2: isa.R(21)},
			{Op: isa.OpSend, Width: isa.W16, Src0: isa.R(20), Src1: isa.R(23),
				Msg: isa.MsgDesc{Kind: isa.MsgStore, Surface: 2, ElemBytes: 4}},
			{Op: isa.OpEnd, Width: isa.W16},
		}}},
	}
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestALUMatchesSemantics: the vectorized interpreter must agree with the
// shared per-lane semantics (isa.Eval) on every data-processing opcode.
func TestALUMatchesSemantics(t *testing.T) {
	ops := []struct {
		op isa.Opcode
		fn isa.MathFn
	}{
		{isa.OpMov, 0}, {isa.OpAnd, 0}, {isa.OpOr, 0}, {isa.OpXor, 0},
		{isa.OpNot, 0}, {isa.OpShl, 0}, {isa.OpShr, 0}, {isa.OpAsr, 0},
		{isa.OpAdd, 0}, {isa.OpSub, 0}, {isa.OpMul, 0}, {isa.OpMach, 0},
		{isa.OpMad, 0}, {isa.OpMin, 0}, {isa.OpMax, 0}, {isa.OpAbs, 0},
		{isa.OpAvg, 0},
		{isa.OpMath, isa.MathInv}, {isa.OpMath, isa.MathSqrt},
		{isa.OpMath, isa.MathIDiv}, {isa.OpMath, isa.MathIRem},
		{isa.OpMath, isa.MathLog2}, {isa.OpMath, isa.MathExp2},
		{isa.OpMath, isa.MathSin}, {isa.OpMath, isa.MathCos},
	}
	rng := rand.New(rand.NewSource(3))
	const n = 64
	for _, o := range ops {
		bin := buildOpKernel(t, o.op, o.fn)
		dev, err := New(IvyBridgeHD4000())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := NewBuffer(4 * n)
		b, _ := NewBuffer(4 * n)
		out, _ := NewBuffer(4 * n)
		av := make([]uint32, n)
		bv := make([]uint32, n)
		for i := 0; i < n; i++ {
			av[i] = rng.Uint32()
			bv[i] = rng.Uint32()
		}
		if err := a.WriteU32(0, av...); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteU32(0, bv...); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Run(Dispatch{Binary: bin, Surfaces: []*Buffer{a, b, out}, GlobalWorkSize: n}); err != nil {
			t.Fatalf("%s/%d: %v", o.op, o.fn, err)
		}
		got, _ := out.ReadU32(0, n)
		for i := 0; i < n; i++ {
			want := isa.Eval(o.op, o.fn, av[i], bv[i], av[i], false)
			if got[i] != want {
				t.Fatalf("%s/%d lane %d: got %#x, want %#x (a=%#x b=%#x)",
					o.op, o.fn, i, got[i], want, av[i], bv[i])
			}
		}
	}
}

// loopKernel builds: for i in 0..N { sum += i }; out[gid] = sum, with the
// trip count from arg 0.
func loopKernel(t *testing.T) *jit.Binary {
	t.Helper()
	k := &kernel.Kernel{
		Name: "loop", SIMD: isa.W16, NumArgs: 1, NumSurfaces: 1,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{
				{Op: isa.OpMovi, Width: isa.W16, Dst: 20, Src0: isa.Imm(0)}, // i
				{Op: isa.OpMovi, Width: isa.W16, Dst: 21, Src0: isa.Imm(0)}, // sum
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
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestLoopExecutesArgTimes(t *testing.T) {
	bin := loopKernel(t)
	dev, _ := New(IvyBridgeHD4000())
	out, _ := NewBuffer(4 * 16)
	st, err := dev.Run(Dispatch{Binary: bin, Args: []uint32{10}, Surfaces: []*Buffer{out}, GlobalWorkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := out.ReadU32(0, 1)
	if got[0] != 45 { // 0+1+...+9
		t.Errorf("sum = %d, want 45", got[0])
	}
	// 3 + 10*4 + 3 = 46 instructions per group, one group.
	if st.Instrs != 46 {
		t.Errorf("instrs = %d, want 46", st.Instrs)
	}
	if st.Groups != 1 {
		t.Errorf("groups = %d", st.Groups)
	}
}

func TestDispatchValidation(t *testing.T) {
	bin := loopKernel(t)
	dev, _ := New(IvyBridgeHD4000())
	out, _ := NewBuffer(64)
	cases := []Dispatch{
		{},                                // no binary
		{Binary: bin, GlobalWorkSize: 0},  // no work
		{Binary: bin, GlobalWorkSize: 16}, // missing args
		{Binary: bin, Args: []uint32{1}, GlobalWorkSize: 16},                           // missing surfaces
		{Binary: bin, Args: []uint32{1}, Surfaces: []*Buffer{nil}, GlobalWorkSize: 16}, // nil surface
	}
	for i, d := range cases {
		if _, err := dev.Run(d); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := dev.Run(Dispatch{Binary: bin, Args: []uint32{1}, Surfaces: []*Buffer{out}, GlobalWorkSize: 16}); err != nil {
		t.Errorf("valid dispatch failed: %v", err)
	}
}

func TestRunawayLoopDetected(t *testing.T) {
	k := &kernel.Kernel{
		Name: "forever", SIMD: isa.W16, NumSurfaces: 0,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{{Op: isa.OpJmp, Width: isa.W16, Target: 0}}},
		},
	}
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := New(IvyBridgeHD4000())
	if _, err := dev.Run(Dispatch{Binary: bin, GlobalWorkSize: 16}); err == nil {
		t.Error("expected runaway-loop error")
	}
}

func TestTimingMonotonicity(t *testing.T) {
	// The same dispatch must not get slower with more EUs or higher
	// frequency (drift disabled to isolate the model).
	base := IvyBridgeHD4000()
	base.ThermalAmp, base.ContentionAmp = 0, 0
	run := func(cfg Config) float64 {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bin := loopKernel(t)
		out, _ := NewBuffer(4 * 4096)
		st, err := dev.Run(Dispatch{Binary: bin, Args: []uint32{100}, Surfaces: []*Buffer{out}, GlobalWorkSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return st.TimeNs
	}
	t16 := run(base)
	t32 := run(base.WithEUs(32))
	if t32 > t16 {
		t.Errorf("more EUs got slower: %f vs %f", t32, t16)
	}
	tSlow := run(base.WithFrequency(350))
	if tSlow < t16 {
		t.Errorf("lower frequency got faster: %f vs %f", tSlow, t16)
	}
	// Frequency scaling is sub-linear: memory time does not scale.
	ratio := tSlow / t16
	if ratio >= 1150.0/350.0 {
		t.Errorf("frequency scaling should be sub-linear, ratio = %f", ratio)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	j1 := NewTimingJitter(7, 0.02)
	j2 := NewTimingJitter(7, 0.02)
	for i := 0; i < 1000; i++ {
		v1 := j1.Perturb(100)
		v2 := j2.Perturb(100)
		if v1 != v2 {
			t.Fatal("same seed must give same jitter")
		}
		if v1 < 98 || v1 > 102 {
			t.Fatalf("jitter out of bounds: %f", v1)
		}
	}
	var nilJitter *TimingJitter
	if nilJitter.Perturb(5) != 5 {
		t.Error("nil jitter must be identity")
	}
}

func TestThermalDriftBounded(t *testing.T) {
	cfg := IvyBridgeHD4000()
	maxAmp := cfg.ThermalAmp + cfg.ContentionAmp
	for n := uint64(0); n < 3000; n++ {
		f := cfg.thermalDrift(n)
		if f < 1-maxAmp-1e-9 || f > 1+maxAmp+1e-9 {
			t.Fatalf("drift %f out of [%f, %f]", f, 1-maxAmp, 1+maxAmp)
		}
	}
	// Disabled drift is exactly 1.
	cfg.ThermalAmp, cfg.ContentionAmp = 0, 0
	if cfg.thermalDrift(0) != 1 {
		t.Error("disabled drift must be identity")
	}
}

func TestPartialGroupMasksSends(t *testing.T) {
	// GWS = 20 with SIMD16: the second group has 4 active channels; the
	// store must write only 4 lanes.
	k := &kernel.Kernel{
		Name: "mask", SIMD: isa.W16, NumSurfaces: 1,
		Blocks: []*kernel.Block{{ID: 0, Instrs: []isa.Instruction{
			{Op: isa.OpShl, Width: isa.W16, Dst: 20, Src0: isa.R(kernel.GIDReg), Src1: isa.Imm(2)},
			{Op: isa.OpMovi, Width: isa.W16, Dst: 21, Src0: isa.Imm(7)},
			{Op: isa.OpSend, Width: isa.W16, Src0: isa.R(20), Src1: isa.R(21),
				Msg: isa.MsgDesc{Kind: isa.MsgStore, Surface: 0, ElemBytes: 4}},
			{Op: isa.OpEnd, Width: isa.W16},
		}}},
	}
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := New(IvyBridgeHD4000())
	out, _ := NewBuffer(4 * 32)
	st, err := dev.Run(Dispatch{Binary: bin, Surfaces: []*Buffer{out}, GlobalWorkSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 2 {
		t.Errorf("groups = %d", st.Groups)
	}
	if st.BytesWritten != 20*4 {
		t.Errorf("bytes written = %d, want 80", st.BytesWritten)
	}
	got, _ := out.ReadU32(0, 32)
	for i := 0; i < 20; i++ {
		if got[i] != 7 {
			t.Errorf("out[%d] = %d, want 7", i, got[i])
		}
	}
	for i := 20; i < 32; i++ {
		if got[i] != 0 {
			t.Errorf("out[%d] = %d: masked lane wrote memory", i, got[i])
		}
	}
}

func TestTimestampAdvances(t *testing.T) {
	dev, _ := New(IvyBridgeHD4000())
	bin := loopKernel(t)
	out, _ := NewBuffer(256)
	before := dev.Timestamp()
	if _, err := dev.Run(Dispatch{Binary: bin, Args: []uint32{5}, Surfaces: []*Buffer{out}, GlobalWorkSize: 16}); err != nil {
		t.Fatal(err)
	}
	if dev.Timestamp() <= before {
		t.Error("timestamp must advance across dispatches")
	}
}
