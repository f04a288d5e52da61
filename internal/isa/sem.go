package isa

import "math"

// Per-lane semantic evaluation shared by simulators. The execution
// engine (gtpin/internal/engine) inlines these operations in
// straight-line W8 and W16 lane loops for speed and calls them for every
// other record; its oracle tests check every handler against Eval and
// EvalCmp lane by lane on every opcode, so the implementations cannot
// drift apart.

// Eval computes a data-processing opcode on one channel. flag is the
// channel's flag bit (consumed by OpSel). Control opcodes, sends, and
// OpCmp are not data-processing and must not be passed.
func Eval(op Opcode, fn MathFn, a, b, c uint32, flag bool) uint32 {
	switch op {
	case OpMov, OpMovi:
		return a
	case OpSel:
		if flag {
			return a
		}
		return b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpNot:
		return ^a
	case OpShl:
		return a << (b & 31)
	case OpShr:
		return a >> (b & 31)
	case OpAsr:
		return uint32(int32(a) >> (b & 31))
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMach:
		return uint32((uint64(a) * uint64(b)) >> 32)
	case OpMad:
		return a*b + c
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpAbs:
		v := int32(a)
		if v < 0 {
			v = -v
		}
		return uint32(v)
	case OpAvg:
		return uint32((uint64(a) + uint64(b) + 1) >> 1)
	case OpMath:
		return EvalMath(fn, a, b)
	}
	return 0
}

// EvalCmp evaluates a comparison condition on one channel.
func EvalCmp(cond CondMod, a, b uint32) bool {
	switch cond {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondLTS:
		return int32(a) < int32(b)
	case CondGTS:
		return int32(a) > int32(b)
	}
	return false
}

// EvalMath evaluates the extended math unit's integer functions.
func EvalMath(fn MathFn, a, b uint32) uint32 {
	switch fn {
	case MathInv:
		if a == 0 {
			a = 1
		}
		return uint32(0xFFFFFFFF / uint64(a))
	case MathSqrt:
		return isqrtU32(a)
	case MathIDiv:
		if b == 0 {
			b = 1
		}
		return a / b
	case MathIRem:
		if b == 0 {
			b = 1
		}
		return a % b
	case MathLog2:
		if a == 0 {
			return 0
		}
		n := uint32(0)
		for a > 1 {
			a >>= 1
			n++
		}
		return n
	case MathExp2:
		return 1 << (a & 31)
	case MathSin:
		return SinTable[a&0xFF]
	case MathCos:
		return SinTable[(a+64)&0xFF]
	}
	return 0
}

// isqrtU32 computes the integer square root ⌊√v⌋. It is exact for every
// uint32: float64 holds v exactly, math.Sqrt is correctly rounded, and
// for v = n²−1 (the input closest below a perfect square) the true root
// lies more than half an ulp below n, so rounding never carries the
// result up to the next integer.
func isqrtU32(v uint32) uint32 {
	return uint32(math.Sqrt(float64(v)))
}

// SinTable is the math unit's 256-entry fixed-point sine period:
// 32768 + 32767·sin(2πi/256), evaluated with an integer quarter-wave
// parabola, so the table is defined by integer arithmetic alone. (The
// only float the math unit uses is isqrtU32's, whose results are exact
// integers.)
var SinTable = func() [256]uint32 {
	var t [256]uint32
	for i := 0; i < 256; i++ {
		q := i & 0x7F
		v := int64(q) * int64(128-q) * 32767 / (64 * 64)
		if i >= 128 {
			v = -v
		}
		t[i] = uint32(32768 + v)
	}
	return t
}()
