package engine

import (
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Core is the architectural state of one executing channel-group: the
// general register file and the flag register. A Core is reused across
// channel-groups and dispatches. InitGroup zeroes the registers and
// flags when a dispatch starts, so a register or lane a kernel reads
// before writing holds zero in the dispatch's first group and, in later
// groups, whatever the previous group of the same dispatch left there:
// a dispatch's results depend only on its kernel, arguments and memory,
// never on what the engine ran before.
type Core struct {
	GRF  [isa.NumRegs][isa.MaxWidth]uint32
	Flag [isa.MaxWidth]bool
}

// InitGroup performs the dispatch ABI setup for one channel-group:
// per-channel global IDs, the group index, and broadcast scalar
// arguments. Every dispatch loop runs its groups in order from group 0,
// which starts the dispatch from zeroed registers and flags.
func (c *Core) InitGroup(k *kernel.Kernel, args []uint32, group, width int) {
	if group == 0 {
		c.GRF = [isa.NumRegs][isa.MaxWidth]uint32{}
		c.Flag = [isa.MaxWidth]bool{}
	}
	base := uint32(group * width)
	for l := 0; l < width; l++ {
		c.GRF[kernel.GIDReg][l] = base + uint32(l)
	}
	for l := 0; l < width; l++ {
		c.GRF[kernel.TIDReg][l] = uint32(group)
	}
	for i := 0; i < k.NumArgs; i++ {
		v := args[i]
		for l := 0; l < width; l++ {
			c.GRF[kernel.ArgReg(i)][l] = v
		}
	}
}

// laneOn reports whether channel i executes under the predication mode.
func (c *Core) laneOn(pred isa.PredMode, i int) bool {
	switch pred {
	case isa.PredOn:
		return c.Flag[i]
	case isa.PredOff:
		return !c.Flag[i]
	}
	return true
}

// countOn returns how many of the first width channels execute under the
// predication mode — what the cycle-level loop charges as lane work and
// consults to suppress phantom scoreboard writes when every lane is
// predicated off.
func (c *Core) countOn(pred isa.PredMode, width int) int {
	if pred == isa.PredNoneMode {
		return width
	}
	n := 0
	for i := 0; i < width; i++ {
		if c.laneOn(pred, i) {
			n++
		}
	}
	return n
}

// reduceFlag reduces the flag vector over the first active channels.
func (c *Core) reduceFlag(mode isa.BranchMode, active int) bool {
	switch mode {
	case isa.BranchAny:
		for i := 0; i < active; i++ {
			if c.Flag[i] {
				return true
			}
		}
		return false
	case isa.BranchAll:
		for i := 0; i < active; i++ {
			if !c.Flag[i] {
				return false
			}
		}
		return true
	case isa.BranchNone:
		for i := 0; i < active; i++ {
			if c.Flag[i] {
				return false
			}
		}
		return true
	}
	return false
}
