// Package xlate translates kernels and device binaries between ISA
// dialects: it decodes the source dialect's binary surface into the
// dialect-neutral kernel IR, legalizes any construct the target dialect
// cannot express (today: SIMD widths outside the target's width set),
// and re-encodes through the target dialect's JIT path.
//
// Translation preserves observable architectural behaviour: memory
// images, dynamic basic-block counts (BBVs), and send traffic are
// byte-identical between a native run and a translated run of the same
// program — the cross-ISA differential tests enforce it. Timing is
// deliberately NOT preserved: the whole point of retargeting is that
// the target dialect's issue costs apply.
//
// Width legalization. GENX lacks W2, and the ISA has no lane
// addressing, so a W2 operation cannot be narrowed or naively widened
// — a W4 op would clobber observable destination lanes 2-3 and flag
// lanes 2-3. Instead each W2 operation is widened inside a save/merge
// "sandwich" built from a per-kernel lane mask: the entry block
// computes mask[l] = (gid&(SIMD-1)) < 2 once per channel-group, and
// every legalized op saves the live flags and destination lanes, runs
// at W4, then merges lanes 2-3 back and restores the flags. Constructs
// with no sound expansion (W2 sends, W2 flag-reducing branches, W2
// dispatch widths, loops back into the entry block) are refused with
// faults.ErrUntranslatable.
package xlate

import (
	"fmt"

	"gtpin/internal/cl"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

// RetargetProgram returns a copy of the program retargeted to the
// given dialect; kernels already in the target dialect are shared, not
// copied. The program name is preserved.
func RetargetProgram(p *kernel.Program, target isa.Dialect) (*kernel.Program, error) {
	if !target.Valid() {
		return nil, fmt.Errorf("xlate: invalid target dialect %d: %w", uint8(target), faults.ErrBadConfig)
	}
	out := &kernel.Program{Name: p.Name, Kernels: make([]*kernel.Kernel, len(p.Kernels))}
	for i, k := range p.Kernels {
		rk, err := RetargetKernel(k, target)
		if err != nil {
			return nil, err
		}
		out.Kernels[i] = rk
	}
	return out, nil
}

// RetargetKernel returns the kernel retargeted to the given dialect,
// legalizing widths the target lacks. A kernel already in the target
// dialect is returned unchanged (same pointer). The result validates
// under the target dialect's width set and register geometry.
func RetargetKernel(k *kernel.Kernel, target isa.Dialect) (*kernel.Kernel, error) {
	if !target.Valid() {
		return nil, fmt.Errorf("xlate: invalid target dialect %d: %w", uint8(target), faults.ErrBadConfig)
	}
	if k.Dialect == target {
		return k, nil
	}
	if !target.WidthValid(k.SIMD) {
		return nil, fmt.Errorf("xlate: kernel %s: dispatch width %d not in dialect %s: %w",
			k.Name, k.SIMD, target, faults.ErrUntranslatable)
	}
	out := &kernel.Kernel{
		Name:        k.Name,
		Dialect:     target,
		SIMD:        k.SIMD,
		NumArgs:     k.NumArgs,
		NumSurfaces: k.NumSurfaces,
		Blocks:      make([]*kernel.Block, len(k.Blocks)),
	}
	leg := &legalizer{k: k, target: target}
	for i, b := range k.Blocks {
		nb, err := leg.block(b)
		if err != nil {
			return nil, err
		}
		out.Blocks[i] = nb
	}
	if leg.allocated {
		// The mask sandwich was used: prepend the once-per-group mask
		// preamble. Plain widens (narrow dispatches) need none.
		if err := leg.checkPreambleSafe(); err != nil {
			return nil, err
		}
		pre := leg.preamble()
		entry := out.Blocks[0]
		out.Blocks[0] = &kernel.Block{ID: 0, Instrs: append(pre, entry.Instrs...)}
	}
	if leg.legalized > 0 {
		mLegalizations.Add(uint64(leg.legalized))
	}
	mKernels.Inc()
	return out, nil
}

// BuildHook returns a driver build hook that translates every compiled
// kernel to the target dialect. Register it on a context before GT-Pin
// attaches, so the translator runs below the rewriter and
// instrumentation lands on the translated code.
func BuildHook(target isa.Dialect) cl.BuildHook {
	return func(bin *jit.Binary) (*jit.Binary, error) { return TranslateBinary(bin, target) }
}

// TranslateBinary translates a compiled device binary to the target
// dialect: decode through the source dialect named in the binary's
// header, retarget the IR, re-encode through the target's JIT path. A
// binary already in the target dialect is returned unchanged (same
// pointer). Instrumented binaries (any Injected instruction) are
// refused: injected code uses the source dialect's scratch band and
// must be re-injected, not translated — run the translator below
// GT-Pin, never above it.
func TranslateBinary(bin *jit.Binary, target isa.Dialect) (*jit.Binary, error) {
	d, err := jit.BinaryDialect(bin)
	if err != nil {
		return nil, fmt.Errorf("xlate: %w", err)
	}
	if d == target {
		return bin, nil
	}
	k, err := jit.Decode(bin)
	if err != nil {
		return nil, fmt.Errorf("xlate: %w", err)
	}
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Injected {
				return nil, fmt.Errorf("xlate: kernel %s: cannot translate an instrumented binary: %w",
					k.Name, faults.ErrUntranslatable)
			}
		}
	}
	rk, err := RetargetKernel(k, target)
	if err != nil {
		return nil, err
	}
	out, err := jit.Compile(rk)
	if err != nil {
		return nil, fmt.Errorf("xlate: kernel %s: re-encode for %s: %w", k.Name, target, err)
	}
	return out, nil
}

// legalizer rewrites one kernel's blocks for a target width set. The
// scratch registers live directly above the kernel's highest used
// register (and below the target's instrumentation band): x0/x1 hold
// the constants 0 and 1, xm the persistent 0/1 lane mask, xf the saved
// flags, xs the saved destination lanes, xt a transient.
type legalizer struct {
	k      *kernel.Kernel
	target isa.Dialect

	legalized int // widened instructions (the metric and preamble trigger)
	allocated bool
	x0, x1    isa.Reg
	xm, xf    isa.Reg
	xs, xt    isa.Reg
}

// legalizeWidth is the width W2 operations widen to.
const legalizeWidth = isa.W4

// alloc places the six scratch registers, failing if the kernel leaves
// no room below the target's scratch band.
func (lg *legalizer) alloc() error {
	if lg.allocated {
		return nil
	}
	base := isa.Reg(kernel.FirstFreeReg)
	for _, b := range lg.k.Blocks {
		for _, in := range b.Instrs {
			for _, r := range instrRegs(in) {
				if r+1 > base {
					base = r + 1
				}
			}
		}
	}
	if int(base)+6 > int(lg.target.ScratchBase()) {
		return fmt.Errorf("xlate: kernel %s: no free registers for width legalization (r%d..r%d needed, scratch band at r%d): %w",
			lg.k.Name, base, base+5, lg.target.ScratchBase(), faults.ErrUntranslatable)
	}
	lg.x0, lg.x1 = base, base+1
	lg.xm, lg.xf = base+2, base+3
	lg.xs, lg.xt = base+4, base+5
	lg.allocated = true
	return nil
}

// instrRegs lists every register an instruction names (destination and
// register sources), for the free-register scan.
func instrRegs(in isa.Instruction) []isa.Reg {
	regs := make([]isa.Reg, 0, 4)
	if in.Op != isa.OpCmp && !in.Op.IsControl() {
		regs = append(regs, in.Dst)
	}
	for _, s := range []isa.Operand{in.Src0, in.Src1, in.Src2} {
		if s.Kind == isa.OperandReg {
			regs = append(regs, s.Reg)
		}
	}
	return regs
}

// checkPreambleSafe refuses kernels whose control flow re-enters block
// 0: the preamble snapshots lane indices from the pristine dispatch
// GID register and resets the flag vector, both valid only at
// channel-group entry.
func (lg *legalizer) checkPreambleSafe() error {
	for _, b := range lg.k.Blocks {
		for _, s := range b.Succs() {
			if s == 0 {
				return fmt.Errorf("xlate: kernel %s: block %d branches to the entry block, which needs a legalization preamble: %w",
					lg.k.Name, b.ID, faults.ErrUntranslatable)
			}
		}
	}
	return nil
}

// preamble builds the once-per-group mask setup prepended to block 0:
//
//	movi x0, #0        (S)   constants for flag<->GRF round-trips
//	movi x1, #1        (S)
//	mov  xt, gid       (W4)  lane index = gid & (SIMD-1)
//	and  xt, xt, #S-1  (W4)
//	cmp.lt xt, #2      (W4)  flag[l] = lane < 2
//	sel  xm, x1, x0    (W4)  xm = mask as 0/1
//	cmp.lt xt, xt      (S)   leave a deterministic all-false flag vector
func (lg *legalizer) preamble() []isa.Instruction {
	s := lg.k.SIMD
	return []isa.Instruction{
		{Op: isa.OpMovi, Width: s, Dst: lg.x0, Src0: isa.Imm(0)},
		{Op: isa.OpMovi, Width: s, Dst: lg.x1, Src0: isa.Imm(1)},
		{Op: isa.OpMov, Width: legalizeWidth, Dst: lg.xt, Src0: isa.R(kernel.GIDReg)},
		{Op: isa.OpAnd, Width: legalizeWidth, Dst: lg.xt, Src0: isa.R(lg.xt), Src1: isa.Imm(uint32(s) - 1)},
		{Op: isa.OpCmp, Width: legalizeWidth, Cond: isa.CondLT, Src0: isa.R(lg.xt), Src1: isa.Imm(uint32(isa.W2))},
		{Op: isa.OpSel, Width: legalizeWidth, Dst: lg.xm, Src0: isa.R(lg.x1), Src1: isa.R(lg.x0)},
		{Op: isa.OpCmp, Width: s, Cond: isa.CondLT, Src0: isa.R(lg.xt), Src1: isa.R(lg.xt)},
	}
}

// block rewrites one block for the target width set.
func (lg *legalizer) block(b *kernel.Block) (*kernel.Block, error) {
	out := make([]isa.Instruction, 0, len(b.Instrs))
	for _, in := range b.Instrs {
		if lg.target.WidthValid(in.Width) {
			out = append(out, in)
			continue
		}
		seq, err := lg.legalize(in, b.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, seq...)
	}
	return &kernel.Block{ID: b.ID, Instrs: out}, nil
}

// legalize expands one instruction whose width the target lacks.
func (lg *legalizer) legalize(in isa.Instruction, blockID int) ([]isa.Instruction, error) {
	switch {
	case in.Op == isa.OpBr:
		// The branch reduces the flag vector over min(width, active)
		// lanes; widening would fold lanes 2-3 into the decision and
		// the flags cannot be restored after a terminator.
		return nil, fmt.Errorf("xlate: kernel %s: block %d: %s at width %d reduces flags the target cannot express: %w",
			lg.k.Name, blockID, in.Op, in.Width, faults.ErrUntranslatable)
	case in.Op.IsControl():
		// jmp/call/ret/end ignore their width entirely.
		in.Width = isa.W1
		return []isa.Instruction{in}, nil
	case in.Op.IsSend():
		// A widened send moves more bytes (and more channels) than the
		// original; traffic is observable, so there is no sound expansion.
		return nil, fmt.Errorf("xlate: kernel %s: block %d: %s at width %d moves width-dependent traffic: %w",
			lg.k.Name, blockID, in.Op, in.Width, faults.ErrUntranslatable)
	}

	if int(lg.k.SIMD) < int(legalizeWidth) {
		// Dispatch narrower than the widened width: lanes at or above
		// the active count never reach memory, branch reductions, or
		// block counters, so plain widening is sound.
		lg.legalized++
		in.Width = legalizeWidth
		return []isa.Instruction{in}, nil
	}

	if err := lg.alloc(); err != nil {
		return nil, err
	}
	lg.legalized++
	s := lg.k.SIMD
	w := legalizeWidth
	saveFlags := isa.Instruction{Op: isa.OpSel, Width: s, Dst: lg.xf, Src0: isa.R(lg.x1), Src1: isa.R(lg.x0)}
	restoreFlags := isa.Instruction{Op: isa.OpCmp, Width: s, Cond: isa.CondNE, Src0: isa.R(lg.xf), Src1: isa.Imm(0)}
	maskToFlags := isa.Instruction{Op: isa.OpCmp, Width: w, Cond: isa.CondNE, Src0: isa.R(lg.xm), Src1: isa.Imm(0)}

	if in.Op == isa.OpCmp {
		// Widen the compare, then merge new flag lanes 0-1 with the
		// saved lanes 2-3 through the 0/1 mask:
		//   xf = old flags; cmp' (W4); xt = new flags (0/1);
		//   flags = mask; xf = sel(xt, xf); flags = xf != 0.
		wide := in
		wide.Width = w
		return []isa.Instruction{
			saveFlags,
			wide,
			{Op: isa.OpSel, Width: w, Dst: lg.xt, Src0: isa.R(lg.x1), Src1: isa.R(lg.x0)},
			maskToFlags,
			{Op: isa.OpSel, Width: w, Dst: lg.xf, Src0: isa.R(lg.xt), Src1: isa.R(lg.xf)},
			restoreFlags,
		}, nil
	}

	// ALU (including sel/mov/movi/math): save flags and the destination
	// lanes the widened op may clobber, run at W4 under the original
	// predication (the live flags are still intact), then merge lanes
	// 2-3 back and restore the flags.
	wide := in
	wide.Width = w
	return []isa.Instruction{
		saveFlags,
		{Op: isa.OpMov, Width: w, Dst: lg.xs, Src0: isa.R(in.Dst)},
		wide,
		maskToFlags,
		{Op: isa.OpSel, Width: w, Dst: in.Dst, Src0: isa.R(in.Dst), Src1: isa.R(lg.xs)},
		restoreFlags,
	}, nil
}
