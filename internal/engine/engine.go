// Package engine is the shared GPU execution engine: the single source
// of truth for interpreting the modeled ISA. It owns the flattened
// five-class opcode dispatch, vectorized operand evaluation, send
// (memory) payload handling, watchdog accounting, and the observer
// hooks that fault injection and analysis probes attach to.
//
// Backends compose the engine with a timing model:
//
//   - internal/device pairs the functional loop (Env.RunGroup) with an
//     analytic roofline timing model and EU/queue scheduling — the fast
//     path GT-Pin profiles against.
//   - internal/detsim pairs the cycle-level loop (Env.RunGroupDetailed)
//     with an in-order scoreboard pipeline and a simulated cache
//     hierarchy, falling back to the functional loop for fast-forward
//     and cache-warming execution.
//
// Both loops execute identical architectural semantics, so a program
// produces bit-identical memory images on every backend — the
// cross-engine equivalence the paper's sampling methodology assumes.
// The differential fuzz tests in this package enforce it, and a
// grep-based layering test keeps opcode dispatch from leaking back into
// the backends.
package engine

import "gtpin/internal/isa"

// The interpreter's first-level dispatch collapses the opcode space
// into five classes, so the hot loops pay one dense table lookup per
// instruction instead of a sparse opcode switch; only control flow then
// re-examines the opcode.
const (
	ClassALU = iota
	ClassControl
	ClassEnd
	ClassSend
	ClassCmp
)

// OpClass maps each opcode to its dispatch class.
var OpClass = func() [isa.NumOpcodes]uint8 {
	var t [isa.NumOpcodes]uint8
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		switch {
		case op == isa.OpEnd:
			t[op] = ClassEnd
		case op.IsControl():
			t[op] = ClassControl
		case op.IsSend():
			t[op] = ClassSend
		case op == isa.OpCmp:
			t[op] = ClassCmp
		default:
			t[op] = ClassALU
		}
	}
	return t
}()

// Stats accumulates what the functional loop executed on behalf of one
// enqueue. Instrs and Cycles commit when a channel-group retires — a
// watchdog kill does not count the partial group — while Sends and the
// byte counts accumulate as the transactions happen, mirroring what a
// bus observer would have seen before the kill.
type Stats struct {
	Instrs       uint64 // dynamic instructions executed
	Cycles       uint64 // summed per-thread execution cycles
	Sends        uint64 // send instructions executed
	BytesRead    uint64 // bytes read from surfaces
	BytesWritten uint64 // bytes written to surfaces
}
