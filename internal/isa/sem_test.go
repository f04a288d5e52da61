package isa

import (
	"testing"
	"testing/quick"
)

func TestEvalBasics(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, c uint32
		flag    bool
		want    uint32
	}{
		{OpMov, 7, 0, 0, false, 7},
		{OpSel, 1, 2, 0, true, 1},
		{OpSel, 1, 2, 0, false, 2},
		{OpAnd, 0xF0, 0x3C, 0, false, 0x30},
		{OpOr, 0xF0, 0x0F, 0, false, 0xFF},
		{OpXor, 0xFF, 0x0F, 0, false, 0xF0},
		{OpNot, 0, 0, 0, false, 0xFFFFFFFF},
		{OpShl, 1, 4, 0, false, 16},
		{OpShl, 1, 36, 0, false, 16}, // shift amounts wrap at 32
		{OpShr, 0x80000000, 31, 0, false, 1},
		{OpAsr, 0x80000000, 31, 0, false, 0xFFFFFFFF},
		{OpAdd, 3, 4, 0, false, 7},
		{OpSub, 3, 4, 0, false, 0xFFFFFFFF},
		{OpMul, 6, 7, 0, false, 42},
		{OpMach, 0x10000, 0x10000, 0, false, 1},
		{OpMad, 2, 3, 4, false, 10},
		{OpMin, 5, 9, 0, false, 5},
		{OpMax, 5, 9, 0, false, 9},
		{OpAbs, 0xFFFFFFFF, 0, 0, false, 1}, // |-1| = 1
		{OpAvg, 3, 4, 0, false, 4},          // (3+4+1)>>1
	}
	for _, c := range cases {
		if got := Eval(c.op, 0, c.a, c.b, c.c, c.flag); got != c.want {
			t.Errorf("Eval(%s, %d, %d, %d, %v) = %d, want %d", c.op, c.a, c.b, c.c, c.flag, got, c.want)
		}
	}
}

func TestEvalCmp(t *testing.T) {
	cases := []struct {
		cond CondMod
		a, b uint32
		want bool
	}{
		{CondEQ, 5, 5, true},
		{CondNE, 5, 5, false},
		{CondLT, 4, 5, true},
		{CondLE, 5, 5, true},
		{CondGT, 6, 5, true},
		{CondGE, 5, 5, true},
		// Unsigned vs signed disagreement: 0xFFFFFFFF is max unsigned
		// but -1 signed.
		{CondLT, 0xFFFFFFFF, 1, false},
		{CondLTS, 0xFFFFFFFF, 1, true},
		{CondGT, 0xFFFFFFFF, 1, true},
		{CondGTS, 0xFFFFFFFF, 1, false},
	}
	for _, c := range cases {
		if got := EvalCmp(c.cond, c.a, c.b); got != c.want {
			t.Errorf("EvalCmp(%s, %d, %d) = %v, want %v", c.cond, c.a, c.b, got, c.want)
		}
	}
	if EvalCmp(CondNone, 1, 1) {
		t.Error("CondNone must be false")
	}
}

// TestMathSqrtProperty: isqrt(v)² ≤ v < (isqrt(v)+1)².
func TestMathSqrtProperty(t *testing.T) {
	f := func(v uint32) bool {
		r := uint64(EvalMath(MathSqrt, v, 0))
		return r*r <= uint64(v) && uint64(v) < (r+1)*(r+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 2, 3, 4, 15, 16, 17, 0xFFFFFFFF} {
		if !f(v) {
			t.Errorf("sqrt property fails at %d", v)
		}
	}
}

// isqrtNewton is the integer square root by Newton iteration that the
// math unit used before isqrtU32, kept as the reference.
func isqrtNewton(v uint32) uint32 {
	if v == 0 {
		return 0
	}
	x := uint64(v)
	bits := uint32(0)
	for t := v; t > 0; t >>= 1 {
		bits++
	}
	r := uint64(1) << ((bits + 1) / 2)
	for {
		nr := (r + x/r) / 2
		if nr >= r {
			return uint32(r)
		}
		r = nr
	}
}

// TestMathSqrtEveryInput proves isqrtU32 exact on all 2^32 inputs
// without enumerating them. ⌊√v⌋ is constant on each [n², (n+1)²−1],
// and isqrtU32 is monotone in v (float64 holds v exactly, and both
// math.Sqrt and the truncation are monotone), so it is right on a whole
// interval once it is right at both ends. The checks below hit every
// end: n² and n²−1 for n = 1..65535, 0, and 0xFFFFFFFF. The old Newton
// loop must agree at each of them.
func TestMathSqrtEveryInput(t *testing.T) {
	check := func(v, want uint32) {
		t.Helper()
		if got := EvalMath(MathSqrt, v, 0); got != want {
			t.Fatalf("isqrt(%d) = %d, want %d", v, got, want)
		}
		if ref := isqrtNewton(v); ref != want {
			t.Fatalf("Newton isqrt(%d) = %d, want %d", v, ref, want)
		}
	}
	check(0, 0)
	check(0xFFFFFFFF, 65535)
	for n := uint32(1); n <= 65535; n++ {
		check(n*n, n)
		check(n*n-1, n-1)
	}
}

// TestMathDivRemProperty: a = (a/b)*b + a%b for b != 0.
func TestMathDivRemProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		if b == 0 {
			b = 1 // the math unit substitutes 1 for 0 divisors
		}
		q := EvalMath(MathIDiv, a, b)
		r := EvalMath(MathIRem, a, b)
		return q*b+r == a && r < b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMathDivByZeroSafe(t *testing.T) {
	// Division and remainder by zero must not panic; the unit treats a
	// zero divisor as one.
	if got := EvalMath(MathIDiv, 42, 0); got != 42 {
		t.Errorf("42/0 -> %d, want 42", got)
	}
	if got := EvalMath(MathIRem, 42, 0); got != 0 {
		t.Errorf("42%%0 -> %d, want 0", got)
	}
	if got := EvalMath(MathInv, 0, 0); got != 0xFFFFFFFF {
		t.Errorf("inv(0) -> %d, want max", got)
	}
}

func TestMathLog2Exp2(t *testing.T) {
	for _, c := range []struct{ in, want uint32 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}, {0x80000000, 31},
	} {
		if got := EvalMath(MathLog2, c.in, 0); got != c.want {
			t.Errorf("log2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := EvalMath(MathExp2, 10, 0); got != 1024 {
		t.Errorf("exp2(10) = %d", got)
	}
	if got := EvalMath(MathExp2, 33, 0); got != 2 {
		t.Errorf("exp2 must mask its argument: got %d", got)
	}
}

func TestSinTableProperties(t *testing.T) {
	// Period midpoint symmetry: sin(i) + sin(i+128) = 2*32768.
	for i := 0; i < 128; i++ {
		if SinTable[i]+SinTable[i+128] != 2*32768 {
			t.Fatalf("sin symmetry broken at %d: %d + %d", i, SinTable[i], SinTable[i+128])
		}
	}
	// Extremes.
	if SinTable[0] != 32768 {
		t.Errorf("sin(0) = %d, want 32768", SinTable[0])
	}
	if SinTable[64] != 32768+32767 {
		t.Errorf("sin peak = %d", SinTable[64])
	}
	// Cos is sin shifted by a quarter period.
	for i := 0; i < 256; i++ {
		if EvalMath(MathCos, uint32(i), 0) != SinTable[(i+64)&0xFF] {
			t.Fatalf("cos(%d) inconsistent", i)
		}
	}
}

func TestEvalMovIgnoresExtraSources(t *testing.T) {
	if got := Eval(OpMov, 0, 9, 123, 456, true); got != 9 {
		t.Errorf("mov must return src0, got %d", got)
	}
}
