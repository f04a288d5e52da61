package engine

import (
	"fmt"

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
// send. AccessLanes walks it for each key in order and returns the
// worst access latency in nanoseconds and how many accesses reached the
// memory latency (line fills from DRAM). *cachesim.Hierarchy satisfies
// it.
type CacheModel interface {
	AccessLanes(keys []uint64, write bool) (worstNs float64, memFills uint64)
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

	// In-order pipeline: every instruction walks all numStages stages,
	// and a memory or long op holds the execute stage. No stage
	// back-pressures the one before it and every stage but execute takes
	// one cycle, so two clocks describe the walk exactly: fetch, the
	// cycle the instruction leaves the fetch stage, and exec, the cycle
	// it leaves execute. The stages between them and those after execute
	// are always free when it arrives, so it leaves the last stage at
	// exec + numStages - 1 - execStage, and the issue cycle the walk
	// reports, numStages - 1 before that, is exec - execStage.
	// RunGroupDetailedRef walks every stage's clock.
	var fetch, exec uint64
	issue := func(ready uint64, execHold uint64) uint64 {
		fetch = max(ready, fetch) + 1
		exec = max(fetch+execStage-1, exec) + 1 + execHold
		ds.LaneOps += numStages // pipeline event bookkeeping
		return exec - execStage
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
				p.runDet(c, p, iw)
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
				lanes := iw
				if p.pred != isa.PredNoneMode {
					lanes = c.countOn(p.pred, iw)
				}
				if lanes == 0 {
					// Every channel predicated off: the instruction still
					// occupies the pipeline, but writes nothing — no
					// execute-stage hold and no scoreboard update, so no
					// phantom dependency on the unwritten destination.
					cycle = issue(start, 0)
					continue
				}
				p.runDet(c, p, iw)
				ds.LaneOps += uint64(lanes)
				cycle = issue(start, p.hold)
				det.regReady[p.dst] = cycle + depth
			}
		}
		blk = next
	}
}

// detSendMsg performs a send's memory semantics with cache simulation,
// returning the access latency in cycles and the line bytes that missed
// every cache level (DRAM traffic). cycle is the pipeline cycle at which
// the send issues, supplied to the detailed timer hook. The data moves
// through moveLanes, the body the functional send shares, which records
// the accessed lanes' keys; the cache model then walks them in one call.
func (e *Env) detSendMsg(det *Detailed, msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, freq float64, cycle uint64, ds *DetailedStats) (uint64, uint64, error) {
	switch msg.Kind {
	case isa.MsgEOT:
		return 0, 0, nil
	case isa.MsgTimer:
		if det.Timer != nil {
			e.Core.GRF[dst][0] = det.Timer(cycle)
		}
		return 0, 0, nil
	}
	n, err := e.moveLanes(msg, dst, addrReg, dataReg, pred, surfs, width, active, true)
	if err != nil {
		return 0, 0, err
	}
	worstNs, fills := det.Caches.AccessLanes(e.keys[:n], msg.Kind.Writes())
	ds.LaneOps += uint64(n)
	lat := uint64(worstNs * freq)
	if lat == 0 {
		lat = 1
	}
	return lat, 64 * fills, nil // one line fill from DRAM per miss
}
