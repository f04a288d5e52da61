package engine

import (
	"fmt"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Pipeline geometry of the modelled in-order EU: fetch, decode,
// register read, two execute stages, write-back, retire.
const (
	numStages = 7
	execStage = 4
)

// CacheModel is the memory hierarchy the detailed loop walks on every
// send access; it returns the access latency in nanoseconds.
// *cachesim.Hierarchy satisfies it.
type CacheModel interface {
	Access(addr uint64, write bool) float64
}

// Detailed is the cycle-level interpreter state a backend composes with
// an Env: the register scoreboard, pipeline depth, and the cache model
// accesses are charged against.
type Detailed struct {
	// Depth is the in-order pipeline's result latency in cycles for
	// single-cycle ops (dependent instructions stall on it).
	Depth uint64
	// Caches is the simulated hierarchy every access walks.
	Caches CacheModel
	// MemLatencyNs is the DRAM latency; accesses at or above it count
	// as full line fills (DRAM traffic).
	MemLatencyNs float64
	// Timer supplies the value a MsgTimer send writes under detailed
	// simulation, given the pipeline cycle (within the current group) at
	// which the send issues — so a timer read observes time advancing
	// across the group, like Env.Timer observes groupCycles on the
	// functional path. A nil hook leaves the destination untouched.
	Timer func(cycle uint64) uint32

	// regReady[r] is the pipeline cycle at which register r's last
	// write completes (the scoreboard).
	regReady  [isa.NumRegs]uint64
	flagReady uint64
}

// DetailedStats accumulates the cycle-level loop's work counters.
// Instrs commits when a group retires; LaneOps counts every per-lane
// evaluation, pipeline event, and cache access — the simulation work
// that makes detailed mode orders of magnitude slower.
type DetailedStats struct {
	Instrs  uint64
	LaneOps uint64
}

// RunGroupDetailed simulates one channel-group at cycle level: every
// instruction's enabled channels are evaluated (vectorized per-opcode,
// over the pre-decoded stream), every memory access walks the cache
// hierarchy, and an in-order scoreboard charges dependency stalls. The
// architectural results are identical to RunGroup — the differential
// tests enforce it — but the simulation cost per instruction is orders
// of magnitude higher.
//
// Scoreboard source sets, execute-stage holds, and clamped execution
// widths come pre-computed from the threaded-code records; watchdog
// checks amortize over whole basic blocks with the exact trip point
// preserved. An instruction whose every channel is predicated off
// writes nothing, holds nothing, and does not update the scoreboard —
// a masked-off write must not create a phantom dependency
// (RunGroupDetailedRef in reference_test.go is the lane-by-lane
// executable spec).
//
// It returns the group's pipeline cycles and the bytes that missed
// every cache level (DRAM traffic).
func (e *Env) RunGroupDetailed(det *Detailed, k *kernel.Kernel, args []uint32, surfs []*Buffer, group, active int, freq float64, ds *DetailedStats) (uint64, uint64, error) {
	pk := e.predecoded(k)
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

	// In-order pipeline: stageFree[st] is the cycle at which stage st
	// can next accept an instruction. Every instruction walks all
	// stages, exposing structural hazards; memory operations occupy the
	// execute stage for their access latency.
	var stageFree [numStages]uint64
	// The stage walk is manually unrolled (numStages == 7, execStage == 4,
	// asserted below): it runs once per dynamic instruction and the rolled
	// loop's per-stage branch showed up in profiles.
	var _ [1]struct{} = [numStages - 6]struct{}{}
	var _ [1]struct{} = [execStage - 3]struct{}{}
	issue := func(ready uint64, execHold uint64) uint64 {
		t := ready
		if stageFree[0] > t {
			t = stageFree[0]
		}
		t++
		stageFree[0] = t
		if stageFree[1] > t {
			t = stageFree[1]
		}
		t++
		stageFree[1] = t
		if stageFree[2] > t {
			t = stageFree[2]
		}
		t++
		stageFree[2] = t
		if stageFree[3] > t {
			t = stageFree[3]
		}
		t++
		stageFree[3] = t
		if stageFree[4] > t {
			t = stageFree[4]
		}
		t += 1 + execHold // execute stage holds for memory/long ops
		stageFree[4] = t
		if stageFree[5] > t {
			t = stageFree[5]
		}
		t++
		stageFree[5] = t
		if stageFree[6] > t {
			t = stageFree[6]
		}
		t++
		stageFree[6] = t
		ds.LaneOps += numStages          // pipeline event bookkeeping
		return t - uint64(numStages) + 1 // cycle the instruction issued
	}

	// readyAt consults the pre-computed scoreboard source set: the
	// register sources and flag dependency were extracted at predecode,
	// so the hot check is a counted loop over at most three registers.
	readyAt := func(p *pOp) uint64 {
		t := cycle
		if p.nSrc > 0 {
			if r := det.regReady[p.srcRegs[0]]; r > t {
				t = r
			}
			if p.nSrc > 1 {
				if r := det.regReady[p.srcRegs[1]]; r > t {
					t = r
				}
				if p.nSrc > 2 {
					if r := det.regReady[p.srcRegs[2]]; r > t {
						t = r
					}
				}
			}
		}
		if p.readsFlag && det.flagReady > t {
			t = det.flagReady
		}
		return t
	}

	for {
		if blk >= len(pk.blocks) {
			return 0, 0, fmt.Errorf("fell off end of kernel (block %d)", blk)
		}
		if e.OnBlock != nil {
			e.OnBlock(blk)
		}
		b := &pk.blocks[blk]
		next := blk + 1
		fast := e.Watchdog.blockFits(instrs, b.n)
	body:
		for pi := range b.ops {
			p := &b.ops[pi]
			instrs++
			if !fast {
				if err := e.Watchdog.check(instrs); err != nil {
					return 0, 0, err
				}
			}
			start := readyAt(p)
			iw := p.widthDet

			switch p.class {
			case ClassEnd:
				cycle = issue(start, 1)
				ds.Instrs += instrs
				e.Watchdog.commit(instrs)
				return cycle + numStages, bytesMoved, nil
			case ClassControl:
				switch p.op {
				case isa.OpJmp:
					cycle = issue(start, 1)
					next = p.target
				case isa.OpBr:
					cycle = issue(start, 1)
					ba := active
					if iw < ba {
						ba = iw
					}
					if c.reduceFlag(p.brMode, ba) {
						next = p.target
					}
				case isa.OpCall:
					if sp == len(retStack) {
						return 0, 0, fmt.Errorf("call stack overflow")
					}
					retStack[sp] = blk + 1
					sp++
					cycle = issue(start, 1)
					next = p.target
				case isa.OpRet:
					if sp == 0 {
						return 0, 0, fmt.Errorf("ret with empty call stack")
					}
					sp--
					cycle = issue(start, 1)
					next = retStack[sp]
				}
				break body
			case ClassCmp:
				c.execCmp(p.cond, c.vec(&p.src0), c.vec(&p.src1), iw)
				ds.LaneOps += uint64(iw)
				cycle = issue(start, 0)
				det.flagReady = cycle + depth
			case ClassSend:
				sa := active
				if iw < sa {
					sa = iw
				}
				lat, moved, err := e.detSendMsg(det, &p.msg, p.dst, p.src0.reg, p.src1.reg, p.pred, surfs, iw, sa, freq, start, ds)
				if err != nil {
					return 0, 0, err
				}
				cycle = issue(start, 2)
				bytesMoved += moved
				if p.dst != 0 || p.msg.Kind.Reads() {
					// The thread stalls for the full latency only when a
					// dependent read occurs; the scoreboard captures that.
					det.regReady[p.dst] = cycle + lat
				}
			default: // ClassALU
				exec := iw
				if p.pred != isa.PredNoneMode {
					exec = c.countOn(p.pred, iw)
				}
				if exec == 0 {
					// Every channel predicated off: the instruction still
					// occupies the pipeline, but writes nothing — no
					// execute-stage hold and no scoreboard update, so no
					// phantom dependency on the unwritten destination.
					cycle = issue(start, 0)
					continue
				}
				var s2 *[isa.MaxWidth]uint32
				if p.op == isa.OpMad {
					s2 = c.vec(&p.src2)
				}
				c.execALUVec(p.op, p.fn, p.pred, p.dst, c.vec(&p.src0), c.vec(&p.src1), s2, iw)
				ds.LaneOps += uint64(exec)
				cycle = issue(start, p.hold)
				det.regReady[p.dst] = cycle + depth
			}
		}
		blk = next
	}
}

// detSendMsg performs a send's memory semantics with per-access cache
// simulation, returning the access latency in cycles and the line bytes
// that missed every cache level (DRAM traffic). cycle is the pipeline
// cycle at which the send issues, supplied to the detailed timer hook.
// Both the reference and pre-decoded cycle-level loops funnel through
// this one body, so their per-lane memory semantics cannot drift.
func (e *Env) detSendMsg(det *Detailed, msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, freq float64, cycle uint64, ds *DetailedStats) (uint64, uint64, error) {
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
	surf := surfs[msg.Surface]
	elem := int(msg.ElemBytes)
	addrs := &c.GRF[addrReg]
	var worstNs float64
	var missBytes uint64
	memNs := det.MemLatencyNs

	access := func(addr uint32, write bool) {
		ns := det.Caches.Access(sendKey(msg.Surface, addr), write)
		if ns > worstNs {
			worstNs = ns
		}
		if ns >= memNs {
			missBytes += 64 // one line fill from DRAM
		}
		ds.LaneOps++
	}

	switch msg.Kind {
	case isa.MsgLoad:
		d := &c.GRF[dst]
		for l := 0; l < active; l++ {
			if c.laneOn(pred, l) {
				d[l] = uint32(surf.LoadElem(addrs[l], elem))
				access(addrs[l], false)
			}
		}
	case isa.MsgStore:
		data := &c.GRF[dataReg]
		for l := 0; l < active; l++ {
			if c.laneOn(pred, l) {
				surf.StoreElem(addrs[l], elem, uint64(data[l]))
				access(addrs[l], true)
			}
		}
	case isa.MsgLoadBlock:
		d := &c.GRF[dst]
		base := addrs[0]
		for l := 0; l < width; l++ {
			d[l] = uint32(surf.LoadElem(base+uint32(l*elem), elem))
			access(base+uint32(l*elem), false)
		}
	case isa.MsgStoreBlock:
		data := &c.GRF[dataReg]
		base := addrs[0]
		for l := 0; l < width; l++ {
			surf.StoreElem(base+uint32(l*elem), elem, uint64(data[l]))
			access(base+uint32(l*elem), true)
		}
	case isa.MsgAtomicAdd:
		data := &c.GRF[dataReg]
		d := &c.GRF[dst]
		for l := 0; l < active; l++ {
			if c.laneOn(pred, l) {
				old := surf.AtomicAdd(addrs[l], elem, uint64(data[l]))
				d[l] = uint32(old)
				access(addrs[l], true)
			}
		}
	default:
		return 0, 0, fmt.Errorf("send: unsupported message kind %s", msg.Kind)
	}
	lat := uint64(worstNs * freq)
	if lat == 0 {
		lat = 1
	}
	return lat, missBytes, nil
}
