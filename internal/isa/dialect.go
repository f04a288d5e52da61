package isa

import "fmt"

// Dialect selects one concrete binary surface of the ISA. The neutral
// core of the package — opcodes, the five instruction-mix categories,
// and the per-lane semantics in sem.go — is shared by every dialect;
// what varies per dialect is the 16-byte field layout, the set of legal
// SIMD widths, the issue-cost and execute-hold tables the engine lowers
// from, and the register-file geometry (total registers and the base of
// the instrumentation scratch band).
//
// DialectGEN is the zero value, so kernels and binaries that predate
// the dialect split decode and execute exactly as before.
type Dialect uint8

// Supported dialects.
const (
	// DialectGEN is the original GEN-flavoured surface: all five SIMD
	// widths, 128 registers with an 8-register instrumentation band,
	// and the encoding documented in encode.go.
	DialectGEN Dialect = iota

	// DialectGENX is a second GEN-generation surface with a permuted
	// 16-byte field layout (genx.go), a narrower width set {1,4,8,16}
	// encoded in a 2-bit field, a 96-register file with the scratch
	// band at r88, and a different issue-cost profile (cheaper control,
	// costlier math and sends).
	DialectGENX

	numDialects
)

// NumDialects is the number of defined dialects, for table sizing.
const NumDialects = int(numDialects)

// Valid reports whether d is a defined dialect.
func (d Dialect) Valid() bool { return d < numDialects }

// String returns the dialect's flag-friendly name.
func (d Dialect) String() string {
	switch d {
	case DialectGEN:
		return "gen"
	case DialectGENX:
		return "genx"
	}
	return fmt.Sprintf("dialect(%d)", uint8(d))
}

// ParseDialect maps a flag value ("gen", "genx") to its dialect.
func ParseDialect(s string) (Dialect, error) {
	switch s {
	case "gen", "GEN":
		return DialectGEN, nil
	case "genx", "GENX":
		return DialectGENX, nil
	}
	return 0, fmt.Errorf("isa: unknown dialect %q (want gen or genx)", s)
}

// Dialects lists every defined dialect, for tests and fuzzers that
// iterate the full surface.
func Dialects() []Dialect { return []Dialect{DialectGEN, DialectGENX} }

var dialectWidths = [NumDialects][]Width{
	DialectGEN:  {W1, W2, W4, W8, W16},
	DialectGENX: {W1, W4, W8, W16},
}

// Widths returns the dialect's legal SIMD widths, narrowest first.
// Callers must not mutate the returned slice.
func (d Dialect) Widths() []Width { return dialectWidths[d] }

// WidthValid reports whether w is a legal execution width under d.
func (d Dialect) WidthValid(w Width) bool {
	if d == DialectGENX && w == W2 {
		return false
	}
	return w.Valid()
}

// Register-file geometry per dialect. The neutral Reg type spans the
// largest file (NumRegs == 128); narrower dialects use a prefix of it,
// so the engine's register arrays fit every dialect.
var dialectGeometry = [NumDialects]struct {
	numRegs     int
	scratchBase Reg
}{
	DialectGEN:  {numRegs: NumRegs, scratchBase: ScratchBase},
	DialectGENX: {numRegs: 96, scratchBase: 88},
}

// NumRegs returns the size of the dialect's general register file.
func (d Dialect) NumRegs() int { return dialectGeometry[d].numRegs }

// ScratchBase returns the first register of the dialect's
// instrumentation scratch band; the assembler and validator keep
// program registers below it, and the GT-Pin rewriter allocates its
// per-kernel scratch from it.
func (d Dialect) ScratchBase() Reg { return dialectGeometry[d].scratchBase }

// RegValid reports whether r addresses the dialect's register file.
func (d Dialect) RegValid(r Reg) bool { return int(r) < d.NumRegs() }

// dialectIssueCost holds each dialect's per-opcode base cost in EU
// cycles, charged by the engine's functional cycle accounting. GEN
// keeps the historical profile; GENX models a generation with a
// deeper math unit, a costlier memory fabric, and cheap control.
var dialectIssueCost = func() [NumDialects][opcodeCount]uint32 {
	var t [NumDialects][opcodeCount]uint32
	for op := Opcode(1); op < opcodeCount; op++ {
		switch {
		case op == OpMath:
			t[DialectGEN][op] = 8
			t[DialectGENX][op] = 12
		case op == OpMul || op == OpMach || op == OpMad:
			t[DialectGEN][op] = 2
			t[DialectGENX][op] = 3
		case op.IsControl():
			t[DialectGEN][op] = 2
			t[DialectGENX][op] = 1
		case op.IsSend():
			t[DialectGEN][op] = 4
			t[DialectGENX][op] = 6
		default:
			t[DialectGEN][op] = 1
			t[DialectGENX][op] = 1
		}
	}
	return t
}()

// IssueCost returns the dialect's base cost of op in EU cycles. Send
// latency beyond the issue cost is modelled at dispatch level by the
// owning backend.
func (d Dialect) IssueCost(op Opcode) uint32 { return dialectIssueCost[d][op] }

// ExecHold returns how many cycles beyond the first op occupies the
// execute stage of the detailed pipeline (0 for single-cycle ops). The
// hold mirrors the multi-cycle portion of the issue cost, so the two
// timing models rank opcodes consistently within a dialect.
func (d Dialect) ExecHold(op Opcode) uint64 {
	switch {
	case op == OpMath:
		if d == DialectGENX {
			return 12
		}
		return 8
	case op == OpMul || op == OpMach || op == OpMad:
		if d == DialectGENX {
			return 3
		}
		return 2
	}
	return 0
}

// Encode writes the instruction into buf using the dialect's binary
// layout; buf must be at least InstrBytes long. Encoding fails for
// widths the dialect lacks.
func (d Dialect) Encode(in Instruction, buf []byte) error {
	switch d {
	case DialectGEN:
		return Encode(in, buf)
	case DialectGENX:
		return encodeGENX(in, buf)
	}
	return fmt.Errorf("encode: invalid dialect %d", uint8(d))
}

// Decode parses one instruction word from buf using the dialect's
// binary layout.
func (d Dialect) Decode(buf []byte) (Instruction, error) {
	switch d {
	case DialectGEN:
		return Decode(buf)
	case DialectGENX:
		return decodeGENX(buf)
	}
	return Instruction{}, fmt.Errorf("decode: invalid dialect %d", uint8(d))
}

// DecodeSlice decodes a sequence of instruction words under the
// dialect. The input length must be a multiple of InstrBytes.
func (d Dialect) DecodeSlice(data []byte) ([]Instruction, error) {
	if len(data)%InstrBytes != 0 {
		return nil, fmt.Errorf("decode: %d bytes is not a whole number of instructions", len(data))
	}
	out := make([]Instruction, len(data)/InstrBytes)
	for i := range out {
		in, err := d.Decode(data[i*InstrBytes:])
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		out[i] = in
	}
	return out, nil
}
