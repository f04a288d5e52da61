package engine

import (
	"fmt"

	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// This file is the engine's executable specification: the original
// straight-from-IR interpreter loops, kept as the semantic ground truth
// the pre-decoded production loops (functional.go, detailed.go) are
// differentially fuzzed against. They interpret kernel.Block directly —
// per-instruction operand resolution, per-lane isa.Eval in the detailed
// loop, a watchdog check on every dynamic instruction — with none of
// the threaded-code derivations, so a predecode bug cannot hide in a
// shared lowering. Deliberate divergence from the production loops is a
// bug in exactly one of the two; the differential tests compare
// architectural state, memory images, block traces, returned cycles,
// and work counters. The loops live in a test file, so production
// binaries do not carry them.
//
// RunGroupRef shares two bodies with RunGroup: the ALU lane loops
// (execALUVec, through execALU below) and the send body (execSendMsg);
// RunGroupDetailedRef shares detSendMsg with RunGroupDetailed. A bug
// inside a shared body would be in both sides of a differential test,
// so oracle_test.go checks execALUVec and execCmp against isa.Eval and
// isa.EvalCmp, and both send paths against a byte-slice model.
//
// The interpreter-fidelity fixes apply here too (the spec defines the
// intended semantics, not the historical bugs): timer sends receive the
// live cycle count, and a fully-predicated-off instruction does not
// update the scoreboard.

// RunGroupRef interprets one channel-group under functional semantics
// directly from the kernel IR. Semantically identical to RunGroup.
func (e *Env) RunGroupRef(k *kernel.Kernel, args []uint32, surfs []*Buffer, group, active int, st *Stats) error {
	c := &e.Core
	width := int(k.SIMD)
	c.InitGroup(k, args, group, width)

	var imm [3][isa.MaxWidth]uint32 // broadcast scratch for immediate operands
	var retStack [16]int
	sp := 0
	blk := 0
	groupInstrs := uint64(0)
	groupCycles := uint64(0)

	for {
		if blk >= len(k.Blocks) {
			return fmt.Errorf("fell off end of kernel (block %d)", blk)
		}
		if e.OnBlock != nil {
			e.OnBlock(blk)
		}
		b := k.Blocks[blk]
		next := blk + 1
	body:
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			groupInstrs++
			groupCycles += uint64(k.Dialect.IssueCost(in.Op))
			if err := e.Watchdog.check(groupInstrs); err != nil {
				return err
			}

			iw := int(in.Width) // instruction execution width
			switch OpClass[in.Op] {
			case ClassALU:
				c.execALU(in, &imm, iw)
			case ClassCmp:
				s0 := c.operand(in.Src0, &imm[0], iw)
				s1 := c.operand(in.Src1, &imm[1], iw)
				c.execCmp(in.Cond, s0, s1, iw)
			case ClassSend:
				sendActive := active
				if iw < sendActive {
					sendActive = iw
				}
				if err := e.execSendMsg(&in.Msg, in.Dst, in.Src0.Reg, in.Src1.Reg, in.Pred, surfs, iw, sendActive, groupCycles, st); err != nil {
					return err
				}
				if in.Msg.Kind.Reads() || in.Msg.Kind.Writes() {
					groupCycles += e.MemStallCycles
				}
			case ClassEnd:
				st.Instrs += groupInstrs
				st.Cycles += groupCycles
				e.Watchdog.commit(groupInstrs)
				return nil
			default: // ClassControl
				switch in.Op {
				case isa.OpJmp:
					next = int(in.Target)
				case isa.OpBr:
					ba := active
					if iw < ba {
						ba = iw
					}
					if c.reduceFlag(in.BrMode, ba) {
						next = int(in.Target)
					}
				case isa.OpCall:
					if sp == len(retStack) {
						return fmt.Errorf("call stack overflow")
					}
					retStack[sp] = blk + 1
					sp++
					next = int(in.Target)
				case isa.OpRet:
					if sp == 0 {
						return fmt.Errorf("ret with empty call stack")
					}
					sp--
					next = retStack[sp]
				}
				break body
			}
		}
		blk = next
	}
}

// execALU executes one ALU-class instruction over the full execution
// width, resolving its operands from the instruction form into imm.
func (c *Core) execALU(in *isa.Instruction, imm *[3][isa.MaxWidth]uint32, width int) {
	s0 := c.operand(in.Src0, &imm[0], width)
	s1 := c.operand(in.Src1, &imm[1], width)
	var s2 *[isa.MaxWidth]uint32
	if in.Op == isa.OpMad {
		s2 = c.operand(in.Src2, &imm[2], width)
	}
	c.execALUVec(in.Op, in.Fn, in.Pred, in.Dst, s0, s1, s2, width)
}

// operand resolves an instruction source to a channel vector: a
// register reads the live GRF, an immediate or an absent operand is
// broadcast into scratch.
func (c *Core) operand(o isa.Operand, scratch *[isa.MaxWidth]uint32, width int) *[isa.MaxWidth]uint32 {
	switch o.Kind {
	case isa.OperandReg:
		return &c.GRF[o.Reg]
	case isa.OperandImm:
		for i := 0; i < width; i++ {
			scratch[i] = o.Imm
		}
		return scratch
	}
	for i := 0; i < width; i++ {
		scratch[i] = 0
	}
	return scratch
}

// srcLane resolves one channel of an instruction source, for the
// cycle-level loop's lane-by-lane evaluation.
func (c *Core) srcLane(o isa.Operand, l int) uint32 {
	switch o.Kind {
	case isa.OperandReg:
		return c.GRF[o.Reg][l]
	case isa.OperandImm:
		return o.Imm
	}
	return 0
}

// RunGroupDetailedRef simulates one channel-group at cycle level
// directly from the kernel IR, evaluating every enabled channel
// lane-by-lane through isa.Eval. Semantically identical to
// RunGroupDetailed, including returned cycles, DRAM traffic, and
// DetailedStats accounting.
func (e *Env) RunGroupDetailedRef(det *Detailed, k *kernel.Kernel, args []uint32, surfs []*Buffer, group, active int, freq float64, ds *DetailedStats) (uint64, uint64, error) {
	c := &e.Core
	width := int(k.SIMD)
	c.InitGroup(k, args, group, width)
	for r := range det.regReady {
		det.regReady[r] = 0
	}
	det.flagReady = 0

	var retStack [16]int
	sp := 0
	blk := 0
	var cycle uint64
	var instrs uint64
	var bytesMoved uint64
	depth := det.Depth

	var stageFree [numStages]uint64
	issue := func(ready uint64, execHold uint64) uint64 {
		t := ready
		for st := 0; st < numStages; st++ {
			if stageFree[st] > t {
				t = stageFree[st]
			}
			t++
			if st == execStage {
				t += execHold
			}
			stageFree[st] = t
			ds.LaneOps++
		}
		return t - uint64(numStages) + 1
	}

	readyAt := func(in *isa.Instruction) uint64 {
		t := cycle
		if in.Src0.Kind == isa.OperandReg && det.regReady[in.Src0.Reg] > t {
			t = det.regReady[in.Src0.Reg]
		}
		if in.Src1.Kind == isa.OperandReg && det.regReady[in.Src1.Reg] > t {
			t = det.regReady[in.Src1.Reg]
		}
		if in.Src2.Kind == isa.OperandReg && det.regReady[in.Src2.Reg] > t {
			t = det.regReady[in.Src2.Reg]
		}
		if in.Pred != isa.PredNoneMode || in.Op == isa.OpSel || in.Op == isa.OpBr {
			if det.flagReady > t {
				t = det.flagReady
			}
		}
		return t
	}

	for {
		if blk >= len(k.Blocks) {
			return 0, 0, fmt.Errorf("fell off end of kernel (block %d)", blk)
		}
		if e.OnBlock != nil {
			e.OnBlock(blk)
		}
		b := k.Blocks[blk]
		next := blk + 1
	body:
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			instrs++
			if err := e.Watchdog.check(instrs); err != nil {
				return 0, 0, err
			}
			start := readyAt(in)
			iw := int(in.Width)
			if iw > width {
				iw = width
			}

			switch in.Op {
			case isa.OpJmp:
				cycle = issue(start, 1)
				next = int(in.Target)
				break body
			case isa.OpBr:
				cycle = issue(start, 1)
				ba := active
				if iw < ba {
					ba = iw
				}
				if c.reduceFlag(in.BrMode, ba) {
					next = int(in.Target)
				}
				break body
			case isa.OpCall:
				if sp == len(retStack) {
					return 0, 0, fmt.Errorf("call stack overflow")
				}
				retStack[sp] = blk + 1
				sp++
				cycle = issue(start, 1)
				next = int(in.Target)
				break body
			case isa.OpRet:
				if sp == 0 {
					return 0, 0, fmt.Errorf("ret with empty call stack")
				}
				sp--
				cycle = issue(start, 1)
				next = retStack[sp]
				break body
			case isa.OpEnd:
				cycle = issue(start, 1)
				ds.Instrs += instrs
				e.Watchdog.commit(instrs)
				return cycle + numStages, bytesMoved, nil
			case isa.OpCmp:
				for l := 0; l < iw; l++ {
					a := c.srcLane(in.Src0, l)
					b2 := c.srcLane(in.Src1, l)
					c.Flag[l] = isa.EvalCmp(in.Cond, a, b2)
					ds.LaneOps++
				}
				cycle = issue(start, 0)
				det.flagReady = cycle + depth
			case isa.OpSend, isa.OpSendc:
				sa := active
				if iw < sa {
					sa = iw
				}
				lat, moved, err := e.detSendMsg(det, &in.Msg, in.Dst, in.Src0.Reg, in.Src1.Reg, in.Pred, surfs, iw, sa, freq, start, ds)
				if err != nil {
					return 0, 0, err
				}
				cycle = issue(start, 2)
				bytesMoved += moved
				if in.Dst != 0 || in.Msg.Kind.Reads() {
					det.regReady[in.Dst] = cycle + lat
				}
			default:
				executed := uint64(0)
				for l := 0; l < iw; l++ {
					if !c.laneOn(in.Pred, l) {
						continue
					}
					a := c.srcLane(in.Src0, l)
					b2 := c.srcLane(in.Src1, l)
					d2 := c.srcLane(in.Src2, l)
					c.GRF[in.Dst][l] = isa.Eval(in.Op, in.Fn, a, b2, d2, c.Flag[l])
					ds.LaneOps++
					executed++
				}
				if executed == 0 {
					cycle = issue(start, 0)
					continue
				}
				cycle = issue(start, k.Dialect.ExecHold(in.Op))
				det.regReady[in.Dst] = cycle + depth
			}
		}
		blk = next
	}
}
