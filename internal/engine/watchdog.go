package engine

import (
	"fmt"

	"gtpin/internal/faults"
)

// MaxGroupInstrs bounds dynamic instructions per channel-group, as a
// runaway-loop backstop that stays armed even when no explicit budget
// is installed.
const MaxGroupInstrs = 64 << 20

// Watchdog is the engine's unified instruction-budget accounting: one
// per-enqueue budget (0 = disabled) consumed across every channel-group
// of the enqueue, plus the always-on per-group runaway backstop. Both
// backends share this accounting, so the same budget trips at the same
// dynamic instruction on the functional device and the detailed
// simulator — previously the two counted at different granularities
// (per-enqueue vs per-group) and drifted.
type Watchdog struct {
	// Budget is the per-enqueue dynamic-instruction budget; 0 keeps
	// only the per-group backstop.
	Budget uint64
	used   uint64 // instructions committed by retired groups of this enqueue
}

// Reset arms the watchdog for a new enqueue.
func (w *Watchdog) Reset(budget uint64) {
	w.Budget = budget
	w.used = 0
}

// check enforces the budgets given the in-flight group's instruction
// count (the current instruction included).
func (w *Watchdog) check(groupInstrs uint64) error {
	if groupInstrs > MaxGroupInstrs {
		return fmt.Errorf("%w: group exceeded %d instructions; runaway loop?", faults.ErrWatchdogTimeout, uint64(MaxGroupInstrs))
	}
	if w.Budget > 0 && w.used+groupInstrs > w.Budget {
		return fmt.Errorf("%w: enqueue exceeded its %d-instruction budget", faults.ErrWatchdogTimeout, w.Budget)
	}
	return nil
}

// commit folds a retired group's instructions into the enqueue total.
func (w *Watchdog) commit(groupInstrs uint64) { w.used += groupInstrs }

// blockFits reports whether a whole basic block of n instructions can
// execute without any budget tripping, given the group's instruction
// count so far. When it does, the pre-decoded loops skip the
// per-instruction check for the block — the amortization that makes the
// watchdog nearly free — and when it does not, they fall back to exact
// per-instruction checking so the budget still trips on the same dynamic
// instruction as the unamortized reference loops.
func (w *Watchdog) blockFits(groupInstrs, n uint64) bool {
	gi := groupInstrs + n
	if gi > MaxGroupInstrs {
		return false
	}
	return w.Budget == 0 || w.used+gi <= w.Budget
}
