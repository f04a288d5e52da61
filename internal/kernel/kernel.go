// Package kernel defines the intermediate representation of OpenCL-style
// GPU programs: a Program is a set of named Kernels, each a control-flow
// graph of basic Blocks over the ISA in gtpin/internal/isa.
//
// The IR is what workloads are authored in (via gtpin/internal/asm), what
// the driver JIT (gtpin/internal/jit) compiles to device binaries, and what
// the GT-Pin binary rewriter reconstructs when it instruments those
// binaries.
package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"gtpin/internal/isa"
)

// Block is a basic block: a straight-line instruction sequence with a
// single entry and a single (control-instruction) exit.
type Block struct {
	// ID is the block's index within its kernel.
	ID int
	// Instrs is the block body. The last instruction must be a control
	// instruction (jmp, br, call, ret, or end); br falls through to block
	// ID+1 when not taken.
	Instrs []isa.Instruction
}

// Terminator returns the block's final (control) instruction.
func (b *Block) Terminator() isa.Instruction {
	return b.Instrs[len(b.Instrs)-1]
}

// Succs returns the IDs of the blocks control may transfer to when the
// block exits. Call/ret edges are excluded: calls are treated as
// falling through after the callee returns, matching how the interpreter
// runs single-level subroutines.
func (b *Block) Succs() []int {
	t := b.Terminator()
	switch t.Op {
	case isa.OpJmp:
		return []int{int(t.Target)}
	case isa.OpBr:
		return []int{int(t.Target), b.ID + 1}
	case isa.OpCall:
		return []int{b.ID + 1}
	case isa.OpRet, isa.OpEnd:
		return nil
	}
	return nil
}

// Kernel is a named GPU procedure: a list of basic blocks, executed from
// block 0 until an end-of-thread, once per SIMD channel-group of the
// dispatch.
//
// A kernel does not change once it has been fingerprinted or executed:
// Fingerprint keeps its first result, the engine's per-Env stream memo
// holds kernels by pointer, a binary's decoded kernel (jit.Binary.Kernel)
// is one object shared by every backend that dispatches the binary, and
// the predecode and detsim compile caches key on the fingerprint. Code
// that edits IR (the GT-Pin rewriter, retargeting) works on a fresh
// jit.Decode result or builds new kernels, never on one that has run.
type Kernel struct {
	Name string
	// Dialect is the ISA surface the kernel targets: which widths are
	// legal, which issue-cost table the engine lowers from, how many
	// registers exist, and how the JIT encodes the instruction words.
	// The zero value (DialectGEN) matches kernels that predate the
	// dialect split.
	Dialect isa.Dialect
	// SIMD is the dispatch width: how many work-items one hardware thread
	// executes per channel-group. Most instructions in the kernel should
	// use this width.
	SIMD isa.Width
	// Blocks are the kernel's basic blocks, indexed by Block.ID.
	Blocks []*Block
	// NumArgs is the number of scalar arguments the kernel accepts. The
	// device ABI broadcasts argument i into register ArgReg(i).
	NumArgs int
	// NumSurfaces is the number of memory surfaces (buffers) the kernel
	// binds. Surface s in a send descriptor refers to the s-th buffer
	// argument set on the kernel.
	NumSurfaces int

	// fp is the first Fingerprint result, shared by every later call.
	fp atomic.Pointer[fingerprint]
}

// fingerprint is one computed Fingerprint result.
type fingerprint struct {
	sum string
	err error
}

// ABI register conventions shared by the assembler, the device, and the
// GT-Pin rewriter.
const (
	// GIDReg receives the per-channel global work-item IDs at dispatch.
	GIDReg isa.Reg = 0
	// TIDReg receives the channel-group index (scalar, broadcast).
	TIDReg isa.Reg = 1
	// FirstArgReg is the register receiving kernel argument 0; argument i
	// lands in FirstArgReg+i, broadcast across channels.
	FirstArgReg isa.Reg = 2
	// MaxArgs bounds the number of scalar kernel arguments.
	MaxArgs = 16
	// FirstFreeReg is the first register available for kernel temporaries.
	FirstFreeReg = FirstArgReg + MaxArgs
)

// ArgReg returns the register that receives kernel argument i.
func ArgReg(i int) isa.Reg { return FirstArgReg + isa.Reg(i) }

// Fingerprint returns a content address of the kernel's executable
// form: the dialect, the SIMD width, the block structure, and every
// instruction's 16-byte encoding (injected instrumentation included,
// since it executes). Two kernels with equal fingerprints run
// identically on every interpreter, so caches of derived execution
// artifacts — the engine's pre-decoded threaded-code streams — can
// share entries across kernel objects the way the GT-Pin rewrite cache
// shares instrumented binaries across devices. The name is deliberately
// excluded: it does not affect execution. The dialect is included even
// though instruction words are hashed in the neutral (GEN) encoding:
// the same instruction stream executes with different issue costs under
// different dialects, so derived artifacts must not be shared across
// them.
//
// The digest is computed on the first call and kept, so later calls
// cost a load; concurrent first calls each compute the same value.
func (k *Kernel) Fingerprint() (string, error) {
	f := k.fp.Load()
	if f == nil {
		f = &fingerprint{}
		f.sum, f.err = k.fingerprint()
		k.fp.Store(f)
	}
	return f.sum, f.err
}

// fingerprint computes the kernel's digest without the stored result.
func (k *Kernel) fingerprint() (string, error) {
	h := sha256.New()
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(k.Dialect))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(k.SIMD))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(k.Blocks)))
	h.Write(hdr[:])
	var word [isa.InstrBytes]byte
	for _, b := range k.Blocks {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(b.Instrs)))
		h.Write(hdr[:4])
		for _, in := range b.Instrs {
			if err := isa.Encode(in, word[:]); err != nil {
				return "", fmt.Errorf("kernel %s: fingerprint: %w", k.Name, err)
			}
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// StaticInstrs returns the kernel's static instruction count.
func (k *Kernel) StaticInstrs() int {
	n := 0
	for _, b := range k.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Validate checks the structural invariants of the kernel: non-empty
// blocks with control-terminated exits, in-range branch targets, correct
// block IDs, argument and surface references within declared bounds, and
// no use of the instrumentation scratch registers.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernel has no name")
	}
	if !k.Dialect.Valid() {
		return fmt.Errorf("kernel %s: invalid dialect %d", k.Name, uint8(k.Dialect))
	}
	if !k.Dialect.WidthValid(k.SIMD) {
		return fmt.Errorf("kernel %s: invalid SIMD width %d for dialect %s", k.Name, k.SIMD, k.Dialect)
	}
	if len(k.Blocks) == 0 {
		return fmt.Errorf("kernel %s: no blocks", k.Name)
	}
	if k.NumArgs < 0 || k.NumArgs > MaxArgs {
		return fmt.Errorf("kernel %s: %d args (max %d)", k.Name, k.NumArgs, MaxArgs)
	}
	for i, b := range k.Blocks {
		if b.ID != i {
			return fmt.Errorf("kernel %s: block %d has ID %d", k.Name, i, b.ID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("kernel %s: block %d is empty", k.Name, i)
		}
		for j, in := range b.Instrs {
			if err := in.Validate(len(k.Blocks)); err != nil {
				return fmt.Errorf("kernel %s: block %d instr %d: %w", k.Name, i, j, err)
			}
			if !k.Dialect.WidthValid(in.Width) {
				return fmt.Errorf("kernel %s: block %d instr %d: width %d not in dialect %s",
					k.Name, i, j, in.Width, k.Dialect)
			}
			isLast := j == len(b.Instrs)-1
			if isLast != in.Op.IsControl() {
				if isLast {
					return fmt.Errorf("kernel %s: block %d does not end with a control instruction", k.Name, i)
				}
				return fmt.Errorf("kernel %s: block %d instr %d: control instruction %s in block body", k.Name, i, j, in.Op)
			}
			if in.Op.IsSend() && in.Msg.Kind != isa.MsgEOT && in.Msg.Kind != isa.MsgTimer {
				if int(in.Msg.Surface) >= k.NumSurfaces {
					return fmt.Errorf("kernel %s: block %d instr %d: surface %d out of range (%d bound)",
						k.Name, i, j, in.Msg.Surface, k.NumSurfaces)
				}
			}
			for _, r := range instrRegs(in) {
				if !k.Dialect.RegValid(r) {
					return fmt.Errorf("kernel %s: block %d instr %d: register %s outside dialect %s file (%d regs)",
						k.Name, i, j, r, k.Dialect, k.Dialect.NumRegs())
				}
				if !in.Injected && r >= k.Dialect.ScratchBase() {
					return fmt.Errorf("kernel %s: block %d instr %d: register %s is reserved for instrumentation",
						k.Name, i, j, r)
				}
			}
		}
		// br fall-through must exist.
		if t := b.Terminator(); t.Op == isa.OpBr && i == len(k.Blocks)-1 {
			return fmt.Errorf("kernel %s: block %d: br in final block has no fall-through", k.Name, i)
		}
	}
	return nil
}

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

// Program is a complete OpenCL-style program: the set of kernels an
// application builds and dispatches.
type Program struct {
	Name    string
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name, or nil.
func (p *Program) Kernel(name string) *Kernel {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Validate checks every kernel and that kernel names are unique.
func (p *Program) Validate() error {
	if len(p.Kernels) == 0 {
		return fmt.Errorf("program %s: no kernels", p.Name)
	}
	seen := make(map[string]bool, len(p.Kernels))
	for _, k := range p.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("program %s: %w", p.Name, err)
		}
		if seen[k.Name] {
			return fmt.Errorf("program %s: duplicate kernel %q", p.Name, k.Name)
		}
		seen[k.Name] = true
	}
	return nil
}

// StaticStats summarizes a program's static structure, the quantities
// reported in Figure 3b of the paper.
type StaticStats struct {
	UniqueKernels    int
	UniqueBlocks     int
	StaticInstrs     int
	InstrsByCategory [isa.NumCategories]int
	InstrsByWidth    [isa.NumWidths]int
}

// Stats computes the program's static statistics. Injected
// (instrumentation) instructions are excluded.
func (p *Program) Stats() StaticStats {
	var s StaticStats
	s.UniqueKernels = len(p.Kernels)
	for _, k := range p.Kernels {
		s.UniqueBlocks += len(k.Blocks)
		for _, b := range k.Blocks {
			for _, in := range b.Instrs {
				if in.Injected {
					continue
				}
				s.StaticInstrs++
				s.InstrsByCategory[isa.CategoryOf(in.Op)]++
				s.InstrsByWidth[isa.WidthIndex(in.Width)]++
			}
		}
	}
	return s
}

// BlockStats summarizes one basic block's static content; profiling tools
// combine these with dynamic block counts to derive instruction-level
// statistics without per-instruction instrumentation.
type BlockStats struct {
	Instrs       int
	ByCategory   [isa.NumCategories]int
	ByWidth      [isa.NumWidths]int
	BytesRead    uint64 // bytes read by one execution of the block
	BytesWritten uint64 // bytes written by one execution of the block
}

// StatsOf computes the static statistics of a block, excluding injected
// instructions.
func StatsOf(b *Block) BlockStats {
	var s BlockStats
	for _, in := range b.Instrs {
		if in.Injected {
			continue
		}
		s.Instrs++
		s.ByCategory[isa.CategoryOf(in.Op)]++
		s.ByWidth[isa.WidthIndex(in.Width)]++
		if in.Op.IsSend() {
			moved := in.Msg.BytesMoved(in.Width)
			if in.Msg.Kind.Reads() {
				s.BytesRead += moved
			}
			if in.Msg.Kind.Writes() {
				s.BytesWritten += moved
			}
		}
	}
	return s
}
