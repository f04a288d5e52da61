// Package testgen generates random, well-formed kernels and host drivers
// for property-based testing: the same generated program is run through
// the fast functional device, the instrumented (GT-Pin) path, and the
// detailed simulator, and the test suites assert the three agree on
// architectural results and dynamic counts.
package testgen

import (
	"math/rand"

	"gtpin/internal/asm"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Config bounds the generated programs.
type Config struct {
	MaxKernels   int // ≥1
	MaxBlockOps  int // straight-line ops per segment
	MaxLoopIters int // loop trip counts

	// Timers folds EU timestamp reads (MsgTimer sends) into the stored
	// results. Backends disagree on live timer values, so tests that turn
	// this on must install the same deterministic timer hook on every
	// backend under comparison.
	Timers bool
	// PredOff emits regions where every channel is predicated off —
	// including a predicated load — exercising the
	// no-write/no-scoreboard-update paths.
	PredOff bool
	// MixedWidths emits scalar (W1) data ops, the width of GT-Pin's
	// injected counter moves, among the kernel-width ones, and in a
	// SIMD8 kernel two W16 ops wider than the kernel, a non-zero
	// immediate move and a random data op: the functional loop executes
	// all 16 of their lanes and the cycle-level loop the kernel's 8, so
	// the two loops run them through different handlers. Lanes at or
	// beyond the kernel's width never reach memory, so backends still
	// agree on every stored result.
	MixedWidths bool
}

// DefaultConfig returns moderate bounds. Timers, PredOff and MixedWidths
// stay off so seeded workloads (benchmarks, committed baselines) are
// unchanged.
func DefaultConfig() Config {
	return Config{MaxKernels: 3, MaxBlockOps: 8, MaxLoopIters: 6}
}

// FidelityConfig returns DefaultConfig with the interpreter-fidelity
// stressors (timer sends, fully-predicated-off regions, scalar and
// wider-than-kernel ops) enabled.
func FidelityConfig() Config {
	cfg := DefaultConfig()
	cfg.Timers = true
	cfg.PredOff = true
	cfg.MixedWidths = true
	return cfg
}

var dataOps = []isa.Opcode{
	isa.OpMov, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNot, isa.OpShl,
	isa.OpShr, isa.OpAsr, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpMach,
	isa.OpMad, isa.OpMin, isa.OpMax, isa.OpAbs, isa.OpAvg, isa.OpMath,
}

// Kernel generates one random kernel with loops, predication,
// data-dependent branches, and memory traffic over two surfaces.
func Kernel(rng *rand.Rand, name string, cfg Config) *kernel.Kernel {
	widths := []isa.Width{isa.W8, isa.W16}
	simd := widths[rng.Intn(len(widths))]
	a := asm.NewKernel(name, simd)
	iters := a.Arg(0)
	in := a.Surface(0)
	out := a.Surface(1)
	regs := a.Temps(6)
	addr := a.Temp()

	// Seed registers from the ABI and memory.
	a.Mov(regs[0], asm.R(kernel.GIDReg))
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(regs[1], addr, in, 4)
	a.MovI(regs[2], rng.Uint32())
	a.Mov(regs[3], asm.R(kernel.TIDReg))
	a.MovI(regs[4], rng.Uint32()|1)
	a.MovI(regs[5], 0)

	// emitOp emits one random data op at the current width.
	emitOp := func() {
		op := dataOps[rng.Intn(len(dataOps))]
		dst := regs[rng.Intn(len(regs))]
		s0 := asm.R(regs[rng.Intn(len(regs))])
		var s1 isa.Operand
		if rng.Intn(3) == 0 {
			s1 = asm.I(rng.Uint32())
		} else {
			s1 = asm.R(regs[rng.Intn(len(regs))])
		}
		switch op {
		case isa.OpMov, isa.OpNot, isa.OpAbs:
			a.Mov(dst, s0)
		case isa.OpMad:
			a.Mad(dst, s0, s1, asm.R(regs[rng.Intn(len(regs))]))
		case isa.OpMath:
			fns := []isa.MathFn{isa.MathInv, isa.MathSqrt, isa.MathIDiv, isa.MathLog2, isa.MathSin}
			a.Math(fns[rng.Intn(len(fns))], dst, s0, s1)
		default:
			switch op {
			case isa.OpAnd:
				a.And(dst, s0, s1)
			case isa.OpOr:
				a.Or(dst, s0, s1)
			case isa.OpXor:
				a.Xor(dst, s0, s1)
			case isa.OpShl:
				a.Shl(dst, s0, s1)
			case isa.OpShr:
				a.Shr(dst, s0, s1)
			case isa.OpAsr:
				a.Asr(dst, s0, s1)
			case isa.OpAdd:
				a.Add(dst, s0, s1)
			case isa.OpSub:
				a.Sub(dst, s0, s1)
			case isa.OpMul:
				a.Mul(dst, s0, s1)
			case isa.OpMach:
				a.Mach(dst, s0, s1)
			case isa.OpMin:
				a.Min(dst, s0, s1)
			case isa.OpMax:
				a.Max(dst, s0, s1)
			case isa.OpAvg:
				a.Avg(dst, s0, s1)
			}
		}
	}
	emitOps := func(n int) {
		for i := 0; i < n; i++ {
			if cfg.MixedWidths && rng.Intn(4) == 0 {
				a.SetWidth(isa.W1)
				emitOp()
				a.SetWidth(0)
				continue
			}
			emitOp()
		}
	}
	if cfg.MixedWidths {
		// A scalar immediate move, as GT-Pin injects, and in a SIMD8
		// kernel ops wider than the kernel: a non-zero move, so a loop
		// that executes it past the kernel's width leaves a register
		// the other loop's spec does not, then a random op.
		a.SetWidth(isa.W1)
		a.MovI(regs[5], rng.Uint32())
		if simd < isa.W16 {
			a.SetWidth(isa.W16)
			a.MovI(regs[2], rng.Uint32()|1)
			emitOp()
		}
		a.SetWidth(0)
	}

	// Optional counted loop with a memory access and predicated update.
	if rng.Intn(2) == 0 {
		i := a.Temp()
		a.MovI(i, 0)
		a.Label("loop")
		emitOps(1 + rng.Intn(cfg.MaxBlockOps))
		a.And(addr, asm.R(regs[0]), asm.I(0x3FF))
		a.Shl(addr, asm.R(addr), asm.I(2))
		a.Load(regs[1], addr, in, 4)
		if rng.Intn(2) == 0 {
			a.Cmp(isa.CondLT, asm.R(regs[1]), asm.I(1<<31))
			a.SetPred(isa.PredOn)
			a.AddI(regs[5], regs[5], 1)
			a.SetPred(isa.PredNoneMode)
		}
		a.AddI(i, i, 1)
		a.Cmp(isa.CondLT, asm.R(i), asm.R(iters))
		a.Br(isa.BranchAny, "loop")
	} else {
		emitOps(2 + rng.Intn(cfg.MaxBlockOps))
		// Data-dependent branch over a diamond.
		a.Cmp(isa.CondGT, asm.R(regs[1]), asm.R(regs[2]))
		a.Br(isa.BranchAll, "big")
		emitOps(1 + rng.Intn(cfg.MaxBlockOps))
		a.Jmp("join")
		a.Label("big")
		emitOps(1 + rng.Intn(cfg.MaxBlockOps))
		a.Label("join")
	}

	if cfg.PredOff {
		// Fully-predicated-off region: a register compared with itself is
		// false on every channel, so with PredOn nothing executes. The ops
		// below — including the load — must write no state and must not
		// create a scoreboard dependency on their destinations.
		a.Cmp(isa.CondLT, asm.R(regs[3]), asm.R(regs[3]))
		a.SetPred(isa.PredOn)
		emitOps(1 + rng.Intn(3))
		a.And(addr, asm.R(regs[0]), asm.I(0x3FF))
		a.Shl(addr, asm.R(addr), asm.I(2))
		a.Load(regs[1], addr, in, 4)
		a.AddI(regs[5], regs[5], 7)
		a.SetPred(isa.PredNoneMode)
	}
	if cfg.Timers {
		// Fold a timestamp read into the value the last store below
		// writes, so it reaches memory. MsgTimer writes channel 0 only,
		// so the temp is zeroed first.
		rt := a.Temp()
		a.MovI(rt, 0)
		a.Timer(rt)
		a.Add(regs[1], asm.R(regs[1]), asm.R(rt))
	}

	// Result store, sometimes atomic.
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	if rng.Intn(4) == 0 {
		one := a.Temp()
		a.MovI(one, 1)
		a.AtomicAdd(regs[4], out, addr, one, 4)
	}
	a.Store(out, addr, regs[5], 4)
	a.Store(out, addr, regs[1], 4)
	a.End()
	return a.MustBuild()
}

// Program generates a random program of 1..MaxKernels kernels.
func Program(rng *rand.Rand, name string, cfg Config) *kernel.Program {
	n := 1 + rng.Intn(cfg.MaxKernels)
	ks := make([]*kernel.Kernel, n)
	for i := range ks {
		ks[i] = Kernel(rng, name+"_k"+string(rune('a'+i)), cfg)
	}
	return asm.MustProgram(name, ks...)
}

// DriverStep describes one generated host action.
type DriverStep struct {
	Kernel string
	GWS    int
	Iters  uint32
	Sync   bool // issue a sync call after the enqueue
}

// Driver generates a deterministic host schedule over the program's
// kernels: which kernel to enqueue, with what work size and trip count,
// and where the synchronization points fall.
func Driver(rng *rand.Rand, p *kernel.Program, steps int, cfg Config) []DriverStep {
	out := make([]DriverStep, steps)
	gwss := []int{16, 32, 48, 64, 128}
	for i := range out {
		k := p.Kernels[rng.Intn(len(p.Kernels))]
		out[i] = DriverStep{
			Kernel: k.Name,
			GWS:    gwss[rng.Intn(len(gwss))],
			Iters:  uint32(1 + rng.Intn(cfg.MaxLoopIters)),
			Sync:   rng.Intn(3) == 0 || i == steps-1,
		}
	}
	return out
}
