package engine

import (
	"fmt"

	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Env is the execution environment a backend composes around the shared
// interpreter: architectural scratch state, watchdog accounting, and
// the optional observer/fault hooks. Hooks are nilable func fields
// rather than an interface, so the hot loops pay a predictable nil
// check — not a dynamic dispatch — when a hook is absent.
//
// An Env is not safe for concurrent use; each backend instance owns
// one, matching a single in-order command queue.
type Env struct {
	Core     Core
	Watchdog Watchdog

	// Timer supplies the value a MsgTimer send writes to channel 0 of
	// its destination register, given the group's accumulated cycles.
	// A nil hook leaves the destination untouched (the detailed model
	// carries its own notion of time; see Detailed.Timer).
	Timer func(groupCycles uint64) uint32

	// SendFault reports whether fault injection kills the enqueue's
	// n-th send transaction; the engine surfaces the kill as
	// faults.ErrSendFault.
	SendFault func(sends uint64) bool

	// Touch observes each data send's accesses in one call: keys holds
	// the hierarchy key surface<<32|addr of every accessed lane, in lane
	// order, and write is the message's direction (an atomic add
	// writes). It is how cache-warming execution keeps simulated caches
	// hot without modelling time. keys is engine scratch, valid only
	// during the call.
	Touch func(keys []uint64, write bool)

	// OnBlock observes each dynamic basic-block entry; analysis probes
	// (BBVs, opcode mixes) attach here.
	OnBlock func(block int)

	// MemStallCycles is charged to a group per memory send: the
	// SMT-amortized share of memory latency the owning backend models
	// (0 = memory time modelled elsewhere).
	MemStallCycles uint64

	// keys and blockAddrs are send scratch: the accessed lanes' hierarchy
	// keys handed to Touch and to the detailed cache model, and a block
	// message's per-lane addresses. They live here, not on the stack, so
	// a send allocates nothing.
	keys       [isa.MaxWidth]uint64
	blockAddrs [isa.MaxWidth]uint32

	// pre memoizes each kernel's pre-decoded threaded-code stream (see
	// predecode.go), so the per-group loops pay one pointer-map hit per
	// dispatch instead of a content hash. Lazily allocated.
	pre map[*kernel.Kernel]*Predecoded
}

// RunGroup interprets one channel-group to completion under functional
// semantics: full architectural effects, flat per-opcode cycle costs,
// no microarchitectural state. It is the hot path of the functional
// device and of detailed simulation's fast-forward and warmup modes.
//
// The loop executes the kernel's pre-decoded threaded-code stream:
// dispatch classes, operand sources, and issue costs come from the pOp
// records, and watchdog checks amortize over whole basic blocks while
// preserving the exact per-instruction trip point (RunGroupRef in
// reference_test.go is the unamortized executable spec the differential
// tests compare against).
func (e *Env) RunGroup(k *kernel.Kernel, args []uint32, surfs []*Buffer, group, active int, st *Stats) error {
	pk := e.predecoded(k)
	c := &e.Core
	width := int(k.SIMD)
	c.InitGroup(k, args, group, width)

	var retStack [16]int
	sp := 0
	blk := 0
	groupInstrs := uint64(0)
	groupCycles := uint64(0)

	for {
		if blk >= len(pk.blocks) {
			return fmt.Errorf("fell off end of kernel (block %d)", blk)
		}
		if e.OnBlock != nil {
			e.OnBlock(blk)
		}
		b := &pk.blocks[blk]
		next := blk + 1
		// When the whole block fits every budget, skip the
		// per-instruction watchdog check; blocks are straight-line, so
		// either the whole block retires or the budget would not have
		// tripped inside it anyway.
		fast := e.Watchdog.blockFits(groupInstrs, b.n)
	body:
		for pi := range b.ops {
			p := &b.ops[pi]
			groupInstrs++
			groupCycles += uint64(p.issueCost)
			if !fast {
				if err := e.Watchdog.check(groupInstrs); err != nil {
					return err
				}
			}

			switch p.class {
			case ClassALU, ClassCmp:
				p.run(c, p, p.width)
			case ClassSend:
				sendActive := active
				if p.width < sendActive {
					sendActive = p.width
				}
				if err := e.execSendMsg(&p.msg, p.dst, p.src0.reg, p.src1.reg, p.pred, surfs, p.width, sendActive, groupCycles, st); err != nil {
					return err
				}
				if p.msg.Kind.Reads() || p.msg.Kind.Writes() {
					// Charge the thread's share of the memory latency, so
					// both the timing model and intra-thread timer reads
					// observe memory stall time.
					groupCycles += e.MemStallCycles
				}
			case ClassEnd:
				st.Instrs += groupInstrs
				st.Cycles += groupCycles
				e.Watchdog.commit(groupInstrs)
				return nil
			default: // ClassControl
				switch p.op {
				case isa.OpJmp:
					next = p.target
				case isa.OpBr:
					// The branch reduces flags over its own execution width
					// (a scalar br considers only channel 0).
					ba := active
					if p.width < ba {
						ba = p.width
					}
					if c.reduceFlag(p.brMode, ba) {
						next = p.target
					}
				case isa.OpCall:
					if sp == len(retStack) {
						return fmt.Errorf("call stack overflow")
					}
					retStack[sp] = blk + 1
					sp++
					next = p.target
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
