package xlate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
	"gtpin/internal/testgen"
)

// runProgram executes a program on a fresh device through the cl stack
// and returns the final output-surface bytes, plus the GT-Pin records
// when instrument is set. Surface 0 is seeded input, surface 1 output.
// hooks are registered before GT-Pin attaches.
func runProgram(t *testing.T, p *kernel.Program, steps []testgen.DriverStep, instrument bool, hooks ...cl.BuildHook) ([]byte, []*gtpin.InvocationRecord) {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
	for _, h := range hooks {
		ctx.AddBuildHook(h)
	}
	var g *gtpin.GTPin
	if instrument {
		g, err = gtpin.Attach(ctx, gtpin.Options{MemTrace: true, Cache: gtpin.NewRewriteCache()})
		if err != nil {
			t.Fatal(err)
		}
	}
	q := ctx.CreateQueue()
	in, err := ctx.CreateBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 1<<12)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	if err := q.EnqueueWriteBuffer(in, 0, seed); err != nil {
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
		if ik := p.Kernel(k.Name); ik.NumSurfaces > 0 {
			if err := ko.SetBuffer(0, in); err != nil {
				t.Fatal(err)
			}
			if ik.NumSurfaces > 1 {
				if err := ko.SetBuffer(1, out); err != nil {
					t.Fatal(err)
				}
			}
		}
		kernels[k.Name] = ko
	}
	for _, s := range steps {
		ko := kernels[s.Kernel]
		if p.Kernel(s.Kernel).NumArgs > 0 {
			if err := ko.SetArg(0, s.Iters); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.EnqueueNDRangeKernel(ko, s.GWS); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	final := make([]byte, out.Size())
	copy(final, out.Device().Bytes())
	if g != nil {
		return final, g.Records()
	}
	return final, nil
}

// TestRetargetRoundTripStructural: GEN → GENX → GEN is the identity on
// kernels with no W2 (nothing to legalize, so the instruction streams
// never change — only the dialect tag does).
func TestRetargetRoundTripStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := testgen.Program(rng, fmt.Sprintf("rt%d", trial), testgen.DefaultConfig())
		px, err := RetargetProgram(p, isa.DialectGENX)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range px.Kernels {
			if k.Dialect != isa.DialectGENX {
				t.Fatalf("kernel %s dialect = %v", k.Name, k.Dialect)
			}
			if err := k.Validate(); err != nil {
				t.Fatalf("retargeted kernel invalid: %v", err)
			}
		}
		back, err := RetargetProgram(px, isa.DialectGEN)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatal("GEN → GENX → GEN did not round-trip")
		}
	}
}

// TestRetargetIdempotent: retargeting to the current dialect is a
// no-op returning the same pointers.
func TestRetargetIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := testgen.Program(rng, "noop", testgen.DefaultConfig())
	same, err := RetargetProgram(p, isa.DialectGEN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Kernels {
		if same.Kernels[i] != p.Kernels[i] {
			t.Fatal("same-dialect retarget copied a kernel")
		}
	}
}

// TestTranslateBinaryMatchesRecompile: translating a compiled GENX
// binary to GEN yields byte-identical code to compiling the
// GEN-retargeted IR directly — decode∘retarget∘encode commutes with
// the JIT.
func TestTranslateBinaryMatchesRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := testgen.Program(rng, "comm", testgen.DefaultConfig())
	px, err := RetargetProgram(p, isa.DialectGENX)
	if err != nil {
		t.Fatal(err)
	}
	for i, kx := range px.Kernels {
		binX, err := jit.Compile(kx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TranslateBinary(binX, isa.DialectGEN)
		if err != nil {
			t.Fatal(err)
		}
		want, err := jit.Compile(p.Kernels[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Code, want.Code) {
			t.Fatalf("kernel %s: translated bytes differ from direct compile", kx.Name)
		}
		// Already at the target: same pointer back.
		same, err := TranslateBinary(got, isa.DialectGEN)
		if err != nil {
			t.Fatal(err)
		}
		if same != got {
			t.Error("same-dialect translate did not return its input")
		}
	}
}

// w2Kernel builds a GEN kernel exercising every legalization shape:
// a W2 ALU op, a W2 compare whose flags a later full-width sel
// consumes, a predicated W2 op under live flags, and full-width stores
// that make every destination lane observable.
func w2Kernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	a := asm.NewKernel("w2", isa.W8)
	in := a.Surface(0)
	out := a.Surface(1)
	addr := a.Temp()
	v := a.Temp()
	acc := a.Temp()
	selr := a.Temp()
	pv := a.Temp()
	addr2 := a.Temp()

	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, in, 4)
	a.Mov(acc, asm.R(v))
	a.Mov(pv, asm.R(v))

	// W2 ALU: only lanes 0-1 of acc change.
	a.SetWidth(isa.W2)
	a.Add(acc, asm.R(acc), asm.I(5))
	// W2 compare: only flag lanes 0-1 change.
	a.Cmp(isa.CondLT, asm.R(v), asm.I(128))
	a.SetWidth(0)

	// Full-width sel consumes the merged flag vector.
	a.Sel(selr, asm.R(v), asm.I(7))

	// Predicated W2 op under the live flags.
	a.SetWidth(isa.W2)
	a.SetPred(isa.PredOn)
	a.Mov(pv, asm.R(selr))
	a.SetPred(isa.PredNoneMode)
	a.SetWidth(0)

	a.Store(out, addr, acc, 4)
	a.AddI(addr2, addr, 1<<9)
	a.Store(out, addr2, selr, 4)
	a.AddI(addr2, addr, 1<<10)
	a.Store(out, addr2, pv, 4)
	a.End()

	k, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWidthLegalizationEquivalence is the semantic heart of the
// translator: a GEN kernel full of W2 operations and its legalized
// GENX translation must produce byte-identical memory images.
func TestWidthLegalizationEquivalence(t *testing.T) {
	k := w2Kernel(t)
	p, err := asm.Program("w2app", k)
	if err != nil {
		t.Fatal(err)
	}
	steps := []testgen.DriverStep{{Kernel: "w2", GWS: 64, Iters: 1}}

	before := mLegalizations.Load()
	px, err := RetargetProgram(p, isa.DialectGENX)
	if err != nil {
		t.Fatal(err)
	}
	if got := mLegalizations.Load() - before; got < 3 {
		t.Errorf("xlate_width_legalizations_total advanced by %d, want >= 3", got)
	}
	for _, b := range px.Kernels[0].Blocks {
		for _, in := range b.Instrs {
			if in.Width == isa.W2 {
				t.Fatal("W2 instruction survived legalization")
			}
		}
	}

	native, _ := runProgram(t, p, steps, false)
	translated, _ := runProgram(t, px, steps, false)
	if !bytes.Equal(native, translated) {
		t.Fatal("legalized GENX run diverged from the native GEN run")
	}
}

// TestLegalizedNarrowDispatch: a W1-dispatch kernel with W2 ops takes
// the plain-widening path (no mask preamble) and stays equivalent.
func TestLegalizedNarrowDispatch(t *testing.T) {
	a := asm.NewKernel("narrow", isa.W1)
	in := a.Surface(0)
	out := a.Surface(1)
	addr := a.Temp()
	v := a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, in, 4)
	a.SetWidth(isa.W2)
	a.Add(v, asm.R(v), asm.I(3))
	a.SetWidth(0)
	a.Store(out, addr, v, 4)
	a.End()
	k, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Program("narrowapp", k)
	if err != nil {
		t.Fatal(err)
	}
	px, err := RetargetProgram(p, isa.DialectGENX)
	if err != nil {
		t.Fatal(err)
	}
	steps := []testgen.DriverStep{{Kernel: "narrow", GWS: 16, Iters: 1}}
	native, _ := runProgram(t, p, steps, false)
	translated, _ := runProgram(t, px, steps, false)
	if !bytes.Equal(native, translated) {
		t.Fatal("narrow-dispatch legalization diverged")
	}
}

// TestDifferentialCrossDialect is the cross-ISA differential property:
// seeded programs (no W2, so translation is a pure re-encode) must
// produce identical memory images, dynamic basic-block vectors,
// opcode-class counts, and send byte totals when run natively on GEN
// and retargeted to GENX. Timing is excluded by design — the dialects
// have different issue costs.
func TestDifferentialCrossDialect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testgen.DefaultConfig()
	for trial := 0; trial < 10; trial++ {
		trial := trial
		p := testgen.Program(rng, fmt.Sprintf("xd%d", trial), cfg)
		steps := testgen.Driver(rng, p, 4+rng.Intn(6), cfg)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			px, err := RetargetProgram(p, isa.DialectGENX)
			if err != nil {
				t.Fatal(err)
			}
			memG, recsG := runProgram(t, p, steps, true)
			memX, recsX := runProgram(t, px, steps, true)
			if !bytes.Equal(memG, memX) {
				t.Fatal("memory images diverged across dialects")
			}
			if len(recsG) != len(recsX) {
				t.Fatalf("record counts diverged: %d vs %d", len(recsG), len(recsX))
			}
			for i := range recsG {
				g, x := recsG[i], recsX[i]
				if !reflect.DeepEqual(g.BlockCounts, x.BlockCounts) {
					t.Errorf("invocation %d: BBVs diverged:\ngen:  %v\ngenx: %v", i, g.BlockCounts, x.BlockCounts)
				}
				if g.ByCategory != x.ByCategory {
					t.Errorf("invocation %d: class counts diverged: %v vs %v", i, g.ByCategory, x.ByCategory)
				}
				if g.BytesRead != x.BytesRead || g.BytesWritten != x.BytesWritten {
					t.Errorf("invocation %d: send bytes diverged: %d/%d vs %d/%d",
						i, g.BytesRead, g.BytesWritten, x.BytesRead, x.BytesWritten)
				}
				if g.Instrs != x.Instrs {
					t.Errorf("invocation %d: instruction counts diverged: %d vs %d", i, g.Instrs, x.Instrs)
				}
			}
		})
	}
}

// TestUntranslatableCases enumerates every refusal, each classified
// under faults.ErrUntranslatable.
func TestUntranslatableCases(t *testing.T) {
	build := func(f func(a *asm.KernelBuilder)) *kernel.Kernel {
		t.Helper()
		a := asm.NewKernel("u", isa.W8)
		in := a.Surface(0)
		addr := a.Temp()
		v := a.Temp()
		a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
		a.Load(v, addr, in, 4)
		f(a)
		a.End()
		k, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	cases := []struct {
		name string
		k    func() *kernel.Kernel
	}{
		{"W2 dispatch", func() *kernel.Kernel {
			a := asm.NewKernel("u", isa.W2)
			a.End()
			k, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			return k
		}},
		{"W2 send", func() *kernel.Kernel {
			return build(func(a *asm.KernelBuilder) {
				s := a.Surface(0)
				v := a.Temp()
				addr := a.Temp()
				a.SetWidth(isa.W2)
				a.Load(v, addr, s, 4)
				a.SetWidth(0)
			})
		}},
		{"W2 br", func() *kernel.Kernel {
			return build(func(a *asm.KernelBuilder) {
				v := a.Temp()
				a.Label("top")
				a.AddI(v, v, 1)
				a.CmpI(isa.CondLT, v, 2)
				a.SetWidth(isa.W2)
				a.Br(isa.BranchAny, "top")
				a.SetWidth(0)
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := c.k()
			_, err := RetargetKernel(k, isa.DialectGENX)
			if err == nil {
				t.Fatal("expected ErrUntranslatable")
			}
			if !errors.Is(err, faults.ErrUntranslatable) {
				t.Fatalf("error %v is not ErrUntranslatable", err)
			}
		})
	}

	// Loop back into the entry block, constructed by hand.
	k := &kernel.Kernel{
		Name: "entry-loop", SIMD: isa.W8,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{
				{Op: isa.OpAdd, Width: isa.W2, Dst: kernel.FirstFreeReg,
					Src0: isa.R(kernel.FirstFreeReg), Src1: isa.Imm(1)},
				{Op: isa.OpCmp, Width: isa.W8, Cond: isa.CondLT,
					Src0: isa.R(kernel.FirstFreeReg), Src1: isa.Imm(4)},
				{Op: isa.OpBr, Width: isa.W8, BrMode: isa.BranchAny, Target: 0},
			}},
			{ID: 1, Instrs: []isa.Instruction{{Op: isa.OpEnd, Width: isa.W8}}},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("hand-built kernel invalid: %v", err)
	}
	if _, err := RetargetKernel(k, isa.DialectGENX); !errors.Is(err, faults.ErrUntranslatable) {
		t.Errorf("entry-block loop: got %v, want ErrUntranslatable", err)
	}

	// Register exhaustion: a kernel touching r87 leaves no room for the
	// six legalization registers below GENX's scratch band at r88.
	k = &kernel.Kernel{
		Name: "pressure", SIMD: isa.W8,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{
				{Op: isa.OpAdd, Width: isa.W2, Dst: 87,
					Src0: isa.R(87), Src1: isa.Imm(1)},
				{Op: isa.OpEnd, Width: isa.W8},
			}},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("pressure kernel invalid: %v", err)
	}
	if _, err := RetargetKernel(k, isa.DialectGENX); !errors.Is(err, faults.ErrUntranslatable) {
		t.Errorf("register exhaustion: got %v, want ErrUntranslatable", err)
	}

	// Instrumented binaries are refused by TranslateBinary.
	ik := &kernel.Kernel{
		Name: "inst", SIMD: isa.W8,
		Blocks: []*kernel.Block{
			{ID: 0, Instrs: []isa.Instruction{
				{Op: isa.OpMovi, Width: isa.W1, Dst: isa.ScratchBase,
					Src0: isa.Imm(1), Injected: true},
				{Op: isa.OpEnd, Width: isa.W8},
			}},
		},
	}
	bin, err := jit.Compile(ik)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TranslateBinary(bin, isa.DialectGENX); !errors.Is(err, faults.ErrUntranslatable) {
		t.Errorf("instrumented binary: got %v, want ErrUntranslatable", err)
	}
}

// TestDriverTransformsEndToEnd wires the transforms the way a unit
// with -dialect genx -translate gen does — IR retargeted before it
// enters the driver, every compiled binary translated back to GEN by a
// build hook registered below GT-Pin's — and checks results survive the
// full native-vs-retargeted-vs-translated-back loop.
func TestDriverTransformsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := testgen.Program(rng, "e2e", testgen.DefaultConfig())
	steps := testgen.Driver(rng, p, 5, testgen.DefaultConfig())

	native, _ := runProgram(t, p, steps, false)

	px, err := RetargetProgram(p, isa.DialectGENX)
	if err != nil {
		t.Fatal(err)
	}
	transformed, recs := runProgram(t, px, steps, true, BuildHook(isa.DialectGEN))
	if !bytes.Equal(native, transformed) {
		t.Fatal("transform round-trip perturbed results")
	}
	if len(recs) == 0 {
		t.Fatal("no instrumentation records from the translated run")
	}
	for _, r := range recs {
		if r.Instrs == 0 {
			t.Errorf("invocation %d: no instructions counted", r.Seq)
		}
	}
}
