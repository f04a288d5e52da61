package engine

import (
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Core is the architectural state of one executing channel-group: the
// general register file, the flag register, and the broadcast scratch
// for immediate operands. A Core is reused across channel-groups and
// dispatches. InitGroup zeroes the registers and flags when a dispatch
// starts, so a register or lane a kernel reads before writing holds zero
// in the dispatch's first group and, in later groups, whatever the
// previous group of the same dispatch left there: a dispatch's results
// depend only on its kernel, arguments and memory, never on what the
// engine ran before. The scratch is written before every read.
type Core struct {
	GRF  [isa.NumRegs][isa.MaxWidth]uint32
	Flag [isa.MaxWidth]bool
	imm  [3][isa.MaxWidth]uint32 // broadcast scratch for immediate operands
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

// operand resolves an instruction source to a channel vector.
// Immediates are broadcast into per-slot scratch.
func (c *Core) operand(o isa.Operand, slot, width int) *[isa.MaxWidth]uint32 {
	switch o.Kind {
	case isa.OperandReg:
		return &c.GRF[o.Reg]
	case isa.OperandImm:
		s := &c.imm[slot]
		for i := 0; i < width; i++ {
			s[i] = o.Imm
		}
		return s
	}
	// OperandNone: a zero vector; reuse scratch.
	s := &c.imm[slot]
	for i := 0; i < width; i++ {
		s[i] = 0
	}
	return s
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
