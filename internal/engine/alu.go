package engine

import "gtpin/internal/isa"

// execALUVec executes one ALU-class operation over pre-resolved source
// vectors. The per-opcode loops are the vectorized form of isa.Eval —
// TestOracleALU holds the two to identical lanes — so the compiler
// keeps the lane loop free of per-lane dispatch. s2 is consulted only by
// mad.
func (c *Core) execALUVec(op isa.Opcode, fn isa.MathFn, pred isa.PredMode, dstReg isa.Reg, s0, s1, s2 *[isa.MaxWidth]uint32, width int) {
	dst := &c.GRF[dstReg]

	if pred == isa.PredNoneMode {
		// Unpredicated (the common case): dense lane loops with no
		// per-channel enable check, over operands re-sliced to the
		// execution width so the compiler drops the per-lane bounds
		// checks. Must mirror the predicated switch below exactly, minus
		// the laneOn gate.
		d, a, b := dst[:width], s0[:width], s1[:width]
		switch op {
		case isa.OpMov, isa.OpMovi:
			copy(d, a)
		case isa.OpSel:
			f := c.Flag[:width]
			for i := range d {
				if f[i] {
					d[i] = a[i]
				} else {
					d[i] = b[i]
				}
			}
		case isa.OpAnd:
			for i := range d {
				d[i] = a[i] & b[i]
			}
		case isa.OpOr:
			for i := range d {
				d[i] = a[i] | b[i]
			}
		case isa.OpXor:
			for i := range d {
				d[i] = a[i] ^ b[i]
			}
		case isa.OpNot:
			for i := range d {
				d[i] = ^a[i]
			}
		case isa.OpShl:
			for i := range d {
				d[i] = a[i] << (b[i] & 31)
			}
		case isa.OpShr:
			for i := range d {
				d[i] = a[i] >> (b[i] & 31)
			}
		case isa.OpAsr:
			for i := range d {
				d[i] = uint32(int32(a[i]) >> (b[i] & 31))
			}
		case isa.OpAdd:
			for i := range d {
				d[i] = a[i] + b[i]
			}
		case isa.OpSub:
			for i := range d {
				d[i] = a[i] - b[i]
			}
		case isa.OpMul:
			for i := range d {
				d[i] = a[i] * b[i]
			}
		case isa.OpMach:
			for i := range d {
				d[i] = uint32((uint64(a[i]) * uint64(b[i])) >> 32)
			}
		case isa.OpMad:
			m := s2[:width]
			for i := range d {
				d[i] = a[i]*b[i] + m[i]
			}
		case isa.OpMin:
			for i := range d {
				if b[i] < a[i] {
					d[i] = b[i]
				} else {
					d[i] = a[i]
				}
			}
		case isa.OpMax:
			for i := range d {
				if b[i] > a[i] {
					d[i] = b[i]
				} else {
					d[i] = a[i]
				}
			}
		case isa.OpAbs:
			for i := range d {
				v := int32(a[i])
				if v < 0 {
					v = -v
				}
				d[i] = uint32(v)
			}
		case isa.OpAvg:
			for i := range d {
				d[i] = uint32((uint64(a[i]) + uint64(b[i]) + 1) >> 1)
			}
		case isa.OpMath:
			for i := range d {
				d[i] = isa.EvalMath(fn, a[i], b[i])
			}
		}
		return
	}

	switch op {
	case isa.OpMov, isa.OpMovi:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i]
			}
		}
	case isa.OpSel:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				if c.Flag[i] {
					dst[i] = s0[i]
				} else {
					dst[i] = s1[i]
				}
			}
		}
	case isa.OpAnd:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] & s1[i]
			}
		}
	case isa.OpOr:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] | s1[i]
			}
		}
	case isa.OpXor:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] ^ s1[i]
			}
		}
	case isa.OpNot:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = ^s0[i]
			}
		}
	case isa.OpShl:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] << (s1[i] & 31)
			}
		}
	case isa.OpShr:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] >> (s1[i] & 31)
			}
		}
	case isa.OpAsr:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = uint32(int32(s0[i]) >> (s1[i] & 31))
			}
		}
	case isa.OpAdd:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] + s1[i]
			}
		}
	case isa.OpSub:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] - s1[i]
			}
		}
	case isa.OpMul:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i] * s1[i]
			}
		}
	case isa.OpMach:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = uint32((uint64(s0[i]) * uint64(s1[i])) >> 32)
			}
		}
	case isa.OpMad:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = s0[i]*s1[i] + s2[i]
			}
		}
	case isa.OpMin:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				if s1[i] < s0[i] {
					dst[i] = s1[i]
				} else {
					dst[i] = s0[i]
				}
			}
		}
	case isa.OpMax:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				if s1[i] > s0[i] {
					dst[i] = s1[i]
				} else {
					dst[i] = s0[i]
				}
			}
		}
	case isa.OpAbs:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				v := int32(s0[i])
				if v < 0 {
					v = -v
				}
				dst[i] = uint32(v)
			}
		}
	case isa.OpAvg:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = uint32((uint64(s0[i]) + uint64(s1[i]) + 1) >> 1)
			}
		}
	case isa.OpMath:
		for i := 0; i < width; i++ {
			if c.laneOn(pred, i) {
				dst[i] = isa.EvalMath(fn, s0[i], s1[i])
			}
		}
	}
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

// execCmp executes a compare over the execution width, writing the flag
// register. The condition dispatch is hoisted out of the lane loop, and
// the operands are re-sliced to the width so the loops carry no bounds
// checks.
func (c *Core) execCmp(cond isa.CondMod, s0, s1 *[isa.MaxWidth]uint32, width int) {
	f, a, b := c.Flag[:width], s0[:width], s1[:width]
	switch cond {
	case isa.CondEQ:
		for i := range f {
			f[i] = a[i] == b[i]
		}
	case isa.CondNE:
		for i := range f {
			f[i] = a[i] != b[i]
		}
	case isa.CondLT:
		for i := range f {
			f[i] = a[i] < b[i]
		}
	case isa.CondLE:
		for i := range f {
			f[i] = a[i] <= b[i]
		}
	case isa.CondGT:
		for i := range f {
			f[i] = a[i] > b[i]
		}
	case isa.CondGE:
		for i := range f {
			f[i] = a[i] >= b[i]
		}
	case isa.CondLTS:
		for i := range f {
			f[i] = int32(a[i]) < int32(b[i])
		}
	case isa.CondGTS:
		for i := range f {
			f[i] = int32(a[i]) > int32(b[i])
		}
	default:
		clear(f)
	}
}
