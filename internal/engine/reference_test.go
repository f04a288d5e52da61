package engine

import (
	"fmt"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// This file is the engine's executable specification: the original
// straight-from-IR interpreter loops, kept as the semantic ground truth
// the pre-decoded production loops (functional.go, detailed.go) are
// differentially fuzzed against. They interpret kernel.Block directly —
// per-instruction operand resolution, per-lane isa.Eval and isa.EvalCmp,
// a watchdog check on every dynamic instruction — with none of the
// threaded-code derivations, so a predecode bug cannot hide in a shared
// lowering. Deliberate divergence from the production loops is a bug in
// exactly one of the two; the differential tests compare architectural
// state, memory images, block traces, returned cycles, and work
// counters. The loops live in a test file, so production binaries do
// not carry them.
//
// Both reference loops evaluate every ALU and compare lane through
// isa.Eval and isa.EvalCmp, the ISA's definition, from the
// instruction's own operands. RunGroup and RunGroupDetailed run the
// handlers in handlers.go instead: straight-line lane loops for scalar
// moves and unpredicated W8 and W16 ops, and generic handlers that call
// isa.Eval and isa.EvalCmp over pre-decoded operands for the rest. So
// the differential fuzz checks every production ALU and compare path
// against an independent body: the specification itself, reached
// without predecode's operand lowering, handler choice or width.
// RunGroupRef still shares the send body with RunGroup (execSendMsg and
// its lane mover, moveLanes). A bug inside a shared body would be in
// both sides of a differential test, so oracle_test.go checks both send
// paths against a byte-slice model, and every handler against isa.Eval
// and isa.EvalCmp. RunGroupDetailedRef shares no send code with
// RunGroupDetailed: detSendRef below moves each lane through LoadElem,
// StoreElem or AtomicAdd and walks the cache model one key at a time, so
// the differential fuzz also checks how detSendMsg groups a message's
// lanes into one cache walk.
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
				for l := 0; l < iw; l++ {
					if c.laneOn(in.Pred, l) {
						a, b2, d2 := c.srcLane(in.Src0, l), c.srcLane(in.Src1, l), c.srcLane(in.Src2, l)
						c.GRF[in.Dst][l] = isa.Eval(in.Op, in.Fn, a, b2, d2, c.Flag[l])
					}
				}
			case ClassCmp:
				for l := 0; l < iw; l++ {
					c.Flag[l] = isa.EvalCmp(in.Cond, c.srcLane(in.Src0, l), c.srcLane(in.Src1, l))
				}
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

// srcLane resolves one channel of an instruction source, for the
// reference loops' lane-by-lane evaluation.
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
				lat, moved, err := e.detSendRef(det, &in.Msg, in.Dst, in.Src0.Reg, in.Src1.Reg, in.Pred, surfs, iw, sa, freq, start, ds)
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

// detSendRef is the lane-by-lane specification of detSendMsg. Each
// accessed lane reads its address, walks the cache model with a
// single-key AccessLanes call, and then moves its element through
// LoadElem, StoreElem or AtomicAdd. The latency is the worst lane's and
// the DRAM traffic one line per lane that filled from memory.
func (e *Env) detSendRef(det *Detailed, msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, freq float64, cycle uint64, ds *DetailedStats) (uint64, uint64, error) {
	c := &e.Core
	switch msg.Kind {
	case isa.MsgEOT:
		return 0, 0, nil
	case isa.MsgTimer:
		if det.Timer != nil {
			c.GRF[dst][0] = det.Timer(cycle)
		}
		return 0, 0, nil
	}
	if int(msg.Surface) >= len(surfs) {
		return 0, 0, fmt.Errorf("send %s: surface %d not bound: %w", msg.Kind, msg.Surface, faults.ErrInvalidDispatch)
	}
	if !msg.Kind.Reads() && !msg.Kind.Writes() {
		return 0, 0, fmt.Errorf("send: unsupported message kind %s", msg.Kind)
	}
	surf := surfs[msg.Surface]
	elem := int(msg.ElemBytes)
	block := msg.Kind == isa.MsgLoadBlock || msg.Kind == isa.MsgStoreBlock
	lanes := active
	if block {
		lanes = width
	}
	base := c.GRF[addrReg][0]
	var worstNs float64
	var missBytes uint64
	for l := 0; l < lanes; l++ {
		addr := base + uint32(l*elem)
		if !block {
			if !c.laneOn(pred, l) {
				continue
			}
			addr = c.GRF[addrReg][l]
		}
		key := []uint64{uint64(msg.Surface)<<32 | uint64(addr)}
		ns, fills := det.Caches.AccessLanes(key, msg.Kind.Writes())
		if ns > worstNs {
			worstNs = ns
		}
		missBytes += 64 * fills
		ds.LaneOps++
		switch msg.Kind {
		case isa.MsgLoad, isa.MsgLoadBlock:
			c.GRF[dst][l] = uint32(surf.LoadElem(addr, elem))
		case isa.MsgStore, isa.MsgStoreBlock:
			surf.StoreElem(addr, elem, uint64(c.GRF[dataReg][l]))
		case isa.MsgAtomicAdd:
			c.GRF[dst][l] = uint32(surf.AtomicAdd(addr, elem, uint64(c.GRF[dataReg][l])))
		}
	}
	lat := uint64(worstNs * freq)
	if lat == 0 {
		lat = 1
	}
	return lat, missBytes, nil
}
