package engine

import (
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
	"gtpin/internal/memo"
)

// Pre-decoding lowers a kernel's basic blocks into a flat threaded-code
// stream once, so the hot loops never re-derive per-instruction facts on
// every dynamic execution. Each pOp record fuses the opcode's dispatch
// class with fully resolved operand sources (immediates pre-broadcast
// into shared channel vectors), an ALU or compare record's handler for
// each loop (handlers.go), the issue cost and execute-stage hold, and
// the precomputed scoreboard source/dest sets the cycle-level loop
// consults. Streams are cached process-wide, content-addressed by
// kernel.Fingerprint the way the GT-Pin rewrite cache is keyed by binary
// bytes — so every device and simulator in a sweep shares one stream per
// distinct kernel, and re-decoded copies of the same binary hit.
//
// The reference loops in reference_test.go interpret kernel.Block
// directly; the differential tests in this package hold the two forms to
// identical architectural results, timing, and work accounting.

// PredecodeVersion identifies the stream-format generation. It prefixes
// every cache key, so changing the pOp lowering in any way must bump it —
// otherwise streams pre-decoded by an older generation would execute as
// current.
const PredecodeVersion = "engine-predecode/3"

// pSrc is a pre-resolved instruction source: either a register (vec is
// nil, read through the live GRF) or a pre-broadcast constant vector
// (immediates, and a shared zero vector for absent operands). Constant
// vectors are read-only and shared across all executions of the stream.
type pSrc struct {
	vec *[isa.MaxWidth]uint32
	reg isa.Reg
}

// zeroVec is the shared all-zeroes source for absent operands. It must
// never be written.
var zeroVec [isa.MaxWidth]uint32

// pOp is one threaded-code record: an instruction with every
// execution-invariant derivation done ahead of time.
type pOp struct {
	class uint8      // fused dispatch class (OpClass[op])
	op    isa.Opcode // opcode, for intra-class dispatch
	pred  isa.PredMode
	dst   isa.Reg

	// width is the raw execution width (functional semantics); widthDet
	// is pre-clamped to the kernel's SIMD width, which is what the
	// cycle-level loop executes (group width is always the kernel SIMD).
	width    int
	widthDet int

	// run and runDet execute an ALU or compare record in the functional
	// and the cycle-level loop, chosen for width and widthDet; nil for
	// every other class.
	run, runDet handler

	src0, src1, src2 pSrc

	cond   isa.CondMod
	brMode isa.BranchMode
	fn     isa.MathFn
	msg    isa.MsgDesc
	target int

	issueCost uint32 // functional-loop cycle charge (dialect IssueCost)
	hold      uint64 // detailed execute-stage occupancy beyond one cycle

	// Scoreboard sets for the cycle-level loop: the register sources the
	// instruction waits on, and whether it reads the flag register.
	srcRegs   [3]isa.Reg
	nSrc      uint8
	readsFlag bool
}

// pBlock is one basic block of the stream: a contiguous slice of the
// kernel's flat pOp array plus the block's dynamic instruction count,
// which the loops use to amortize watchdog checks over whole blocks.
type pBlock struct {
	ops []pOp
	n   uint64
}

// Predecoded is one kernel's threaded-code stream. It is immutable after
// construction and safe to share across engines and goroutines.
type Predecoded struct {
	blocks []pBlock
}

// resolveSrc lowers one operand. Immediates are broadcast once into a
// per-kernel dedup pool; absent operands share the zero vector.
func resolveSrc(o isa.Operand, imms map[uint32]*[isa.MaxWidth]uint32) pSrc {
	switch o.Kind {
	case isa.OperandReg:
		return pSrc{reg: o.Reg}
	case isa.OperandImm:
		v, ok := imms[o.Imm]
		if !ok {
			v = new([isa.MaxWidth]uint32)
			for i := range v {
				v[i] = o.Imm
			}
			imms[o.Imm] = v
		}
		return pSrc{vec: v}
	}
	return pSrc{vec: &zeroVec}
}

// Predecode lowers a kernel into its threaded-code stream. It is pure:
// callers wanting the shared cache use PredecodeFor.
func Predecode(k *kernel.Kernel) *Predecoded {
	width := int(k.SIMD)
	ops := make([]pOp, 0, k.StaticInstrs())
	imms := make(map[uint32]*[isa.MaxWidth]uint32)
	pk := &Predecoded{blocks: make([]pBlock, len(k.Blocks))}
	for bi, b := range k.Blocks {
		start := len(ops)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			p := pOp{
				class:     OpClass[in.Op],
				op:        in.Op,
				pred:      in.Pred,
				dst:       in.Dst,
				width:     int(in.Width),
				widthDet:  int(in.Width),
				src0:      resolveSrc(in.Src0, imms),
				src1:      resolveSrc(in.Src1, imms),
				src2:      resolveSrc(in.Src2, imms),
				cond:      in.Cond,
				brMode:    in.BrMode,
				fn:        in.Fn,
				msg:       in.Msg,
				target:    int(in.Target),
				issueCost: k.Dialect.IssueCost(in.Op),
				hold:      k.Dialect.ExecHold(in.Op),
			}
			if p.widthDet > width {
				p.widthDet = width
			}
			p.run = handlerFor(in.Op, in.Cond, in.Pred, p.width)
			p.runDet = handlerFor(in.Op, in.Cond, in.Pred, p.widthDet)
			for _, s := range [3]isa.Operand{in.Src0, in.Src1, in.Src2} {
				if s.Kind == isa.OperandReg {
					p.srcRegs[p.nSrc] = s.Reg
					p.nSrc++
				}
			}
			p.readsFlag = in.Pred != isa.PredNoneMode || in.Op == isa.OpSel || in.Op == isa.OpBr
			ops = append(ops, p)
		}
		pk.blocks[bi] = pBlock{ops: ops[start:len(ops):len(ops)], n: uint64(len(b.Instrs))}
	}
	return pk
}

// predecodeCache is the process-wide stream store, keyed by
// PredecodeVersion + kernel fingerprint. Like the rewrite cache it is
// content-addressed and unbounded: distinct kernels in a process are
// bounded by the programs it builds, not by how many devices run them.
var predecodeCache = memo.New[*Predecoded]("engine_predecode")

// PredecodeFor returns the kernel's stream from the shared cache,
// lowering and inserting it on first sight. Kernels whose instructions
// cannot be content-addressed (unencodable synthetic IR in tests) are
// lowered privately on every call.
func PredecodeFor(k *kernel.Kernel) *Predecoded {
	fp, err := k.Fingerprint()
	if err != nil {
		return Predecode(k)
	}
	pk, _, _ := predecodeCache.Do(PredecodeVersion+"/"+fp, func() (*Predecoded, error) { return Predecode(k), nil })
	return pk
}

// predecoded memoizes PredecodeFor per kernel object, so the per-group
// hot paths pay one map hit per dispatch loop instead of a shared-cache
// lookup. The memo lives on the Env and dies with its backend.
func (e *Env) predecoded(k *kernel.Kernel) *Predecoded {
	if pk, ok := e.pre[k]; ok {
		return pk
	}
	pk := PredecodeFor(k)
	if e.pre == nil {
		e.pre = make(map[*kernel.Kernel]*Predecoded)
	}
	e.pre[k] = pk
	return pk
}

// vec resolves a pre-decoded source against the live register file.
func (c *Core) vec(s *pSrc) *[isa.MaxWidth]uint32 {
	if s.vec != nil {
		return s.vec
	}
	return &c.GRF[s.reg]
}
