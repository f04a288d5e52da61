package engine

import "gtpin/internal/isa"

// A handler executes one pre-decoded ALU or compare record against the
// live register file. Predecode picks two per record, one for each loop
// (pOp.run at the raw width, pOp.runDet at the clamped width), by opcode
// or condition, predication and width, so a loop makes one indirect
// call per ALU or compare op, with no opcode switch or predication test
// on the way.
//
// The specialized handlers cover the traffic the workloads generate:
// unpredicated W8 and W16 ops run straight-line lane loops over fixed
// [8]uint32 and [16]uint32 arrays, four lanes a step, and GT-Pin's
// scalar counter moves a single-lane W1 move. The constant trip count
// lets the compiler drop every bounds check from the lane statements,
// and stepping four lanes at a time leaves one increment and branch per
// four lanes. Every other record (predicated, W2, W4, other W1 ops, an
// undefined condition) gets aluGeneric or cmpGeneric, which evaluate
// each lane through isa.Eval or isa.EvalCmp, the ISA's own definition,
// at the width the calling loop passes. The specialized handlers ignore
// that width: predecode chose them for it.
//
// Handlers are package-level functions, so a record's handler fields
// are plain code pointers and calling one allocates nothing. Each body
// must mirror isa.Eval or isa.EvalCmp over its lanes exactly, and leave
// every lane at or beyond its width untouched; TestOracleALU and
// TestOracleCmp hold every table entry to that.
type handler func(c *Core, p *pOp, width int)

// handlerFor selects the handler for an ALU or compare record that a
// loop executes at width. It returns nil for every other class.
func handlerFor(op isa.Opcode, cond isa.CondMod, pred isa.PredMode, width int) handler {
	var h handler
	switch OpClass[op] {
	case ClassCmp:
		// A compare writes every flag below its width whatever the
		// predication mode, so only the condition and width select.
		if int(cond) < len(cmp8) {
			switch width {
			case 8:
				h = cmp8[cond]
			case 16:
				h = cmp16[cond]
			}
		}
		if h == nil {
			h = cmpGeneric
		}
	case ClassALU:
		if pred == isa.PredNoneMode {
			switch width {
			case 1:
				if op == isa.OpMov || op == isa.OpMovi {
					h = mov1
				}
			case 8:
				h = alu8[op]
			case 16:
				h = alu16[op]
			}
		}
		if h == nil {
			h = aluGeneric
		}
	}
	return h
}

// aluGeneric sets each lane below width that predication enables to
// isa.Eval of its source lanes. A lane reads its sources before its
// destination is written, so the destination may alias any source.
func aluGeneric(c *Core, p *pOp, width int) {
	d, a := c.GRF[p.dst][:width], c.vec(&p.src0)[:width]
	b, m := c.vec(&p.src1)[:width], c.vec(&p.src2)[:width]
	for i := range d {
		if c.laneOn(p.pred, i) {
			d[i] = isa.Eval(p.op, p.fn, a[i], b[i], m[i], c.Flag[i])
		}
	}
}

// cmpGeneric sets every flag below width to isa.EvalCmp of its source
// lanes; a compare ignores predication.
func cmpGeneric(c *Core, p *pOp, width int) {
	f, a, b := c.Flag[:width], c.vec(&p.src0)[:width], c.vec(&p.src1)[:width]
	for i := range f {
		f[i] = isa.EvalCmp(p.cond, a[i], b[i])
	}
}

// mov1 is GT-Pin's scalar counter move: channel 0 only.
func mov1(c *Core, p *pOp, _ int) {
	c.GRF[p.dst][0] = c.vec(&p.src0)[0]
}

// alu8 and alu16 map each ALU opcode to its unpredicated W8 or W16
// handler.
var (
	alu8 = [isa.NumOpcodes]handler{
		isa.OpMov: mov8, isa.OpMovi: mov8, isa.OpSel: sel8,
		isa.OpAnd: and8, isa.OpOr: or8, isa.OpXor: xor8, isa.OpNot: not8,
		isa.OpShl: shl8, isa.OpShr: shr8, isa.OpAsr: asr8,
		isa.OpAdd: add8, isa.OpSub: sub8, isa.OpMul: mul8, isa.OpMach: mach8,
		isa.OpMad: mad8, isa.OpMin: min8, isa.OpMax: max8, isa.OpAbs: abs8,
		isa.OpAvg: avg8, isa.OpMath: math8,
	}
	alu16 = [isa.NumOpcodes]handler{
		isa.OpMov: mov16, isa.OpMovi: mov16, isa.OpSel: sel16,
		isa.OpAnd: and16, isa.OpOr: or16, isa.OpXor: xor16, isa.OpNot: not16,
		isa.OpShl: shl16, isa.OpShr: shr16, isa.OpAsr: asr16,
		isa.OpAdd: add16, isa.OpSub: sub16, isa.OpMul: mul16, isa.OpMach: mach16,
		isa.OpMad: mad16, isa.OpMin: min16, isa.OpMax: max16, isa.OpAbs: abs16,
		isa.OpAvg: avg16, isa.OpMath: math16,
	}
)

// cmp8 and cmp16 map each defined condition to its W8 or W16 compare
// handler; CondNone has none.
var (
	cmp8 = [isa.CondGTS + 1]handler{
		isa.CondEQ: eq8, isa.CondNE: ne8, isa.CondLT: lt8, isa.CondLE: le8,
		isa.CondGT: gt8, isa.CondGE: ge8, isa.CondLTS: lts8, isa.CondGTS: gts8,
	}
	cmp16 = [isa.CondGTS + 1]handler{
		isa.CondEQ: eq16, isa.CondNE: ne16, isa.CondLT: lt16, isa.CondLE: le16,
		isa.CondGT: gt16, isa.CondGE: ge16, isa.CondLTS: lts16, isa.CondGTS: gts16,
	}
)

// lanes8 resolves a record's destination and first two sources as
// 8-lane arrays; lanes16 as 16-lane ones.
func (c *Core) lanes8(p *pOp) (d, a, b *[8]uint32) {
	return (*[8]uint32)(c.GRF[p.dst][:8]), (*[8]uint32)(c.vec(&p.src0)[:8]), (*[8]uint32)(c.vec(&p.src1)[:8])
}

func (c *Core) lanes16(p *pOp) (d, a, b *[16]uint32) {
	return &c.GRF[p.dst], c.vec(&p.src0), c.vec(&p.src1)
}

// flags8 and flags16 resolve a compare's flag lanes and two sources.
func (c *Core) flags8(p *pOp) (f *[8]bool, a, b *[8]uint32) {
	return (*[8]bool)(c.Flag[:8]), (*[8]uint32)(c.vec(&p.src0)[:8]), (*[8]uint32)(c.vec(&p.src1)[:8])
}

func (c *Core) flags16(p *pOp) (f *[16]bool, a, b *[16]uint32) {
	return &c.Flag, c.vec(&p.src0), c.vec(&p.src1)
}

// The lane operations the W8 and W16 handlers share, each one lane of
// isa.Eval; math16 and math8 step one lane at a time, as EvalMath's call
// outweighs the loop.

func sel(f bool, a, b uint32) uint32 {
	if f {
		return a
	}
	return b
}

func shl(a, b uint32) uint32  { return a << (b & 31) }
func shr(a, b uint32) uint32  { return a >> (b & 31) }
func asr(a, b uint32) uint32  { return uint32(int32(a) >> (b & 31)) }
func mach(a, b uint32) uint32 { return uint32((uint64(a) * uint64(b)) >> 32) }
func avg(a, b uint32) uint32  { return uint32((uint64(a) + uint64(b) + 1) >> 1) }

func abs(a uint32) uint32 {
	if v := int32(a); v < 0 {
		return uint32(-v)
	}
	return a
}

// The W8 ALU handlers.

func mov8(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes8(p)
	*d = *a
}

func sel8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	f := (*[8]bool)(c.Flag[:8])
	for i := 0; i < 8; i += 4 {
		d[i] = sel(f[i], a[i], b[i])
		d[i+1] = sel(f[i+1], a[i+1], b[i+1])
		d[i+2] = sel(f[i+2], a[i+2], b[i+2])
		d[i+3] = sel(f[i+3], a[i+3], b[i+3])
	}
}

func and8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] & b[i]
		d[i+1] = a[i+1] & b[i+1]
		d[i+2] = a[i+2] & b[i+2]
		d[i+3] = a[i+3] & b[i+3]
	}
}

func or8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] | b[i]
		d[i+1] = a[i+1] | b[i+1]
		d[i+2] = a[i+2] | b[i+2]
		d[i+3] = a[i+3] | b[i+3]
	}
}

func xor8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] ^ b[i]
		d[i+1] = a[i+1] ^ b[i+1]
		d[i+2] = a[i+2] ^ b[i+2]
		d[i+3] = a[i+3] ^ b[i+3]
	}
}

func not8(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = ^a[i]
		d[i+1] = ^a[i+1]
		d[i+2] = ^a[i+2]
		d[i+3] = ^a[i+3]
	}
}

func shl8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = shl(a[i], b[i])
		d[i+1] = shl(a[i+1], b[i+1])
		d[i+2] = shl(a[i+2], b[i+2])
		d[i+3] = shl(a[i+3], b[i+3])
	}
}

func shr8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = shr(a[i], b[i])
		d[i+1] = shr(a[i+1], b[i+1])
		d[i+2] = shr(a[i+2], b[i+2])
		d[i+3] = shr(a[i+3], b[i+3])
	}
}

func asr8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = asr(a[i], b[i])
		d[i+1] = asr(a[i+1], b[i+1])
		d[i+2] = asr(a[i+2], b[i+2])
		d[i+3] = asr(a[i+3], b[i+3])
	}
}

func add8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] + b[i]
		d[i+1] = a[i+1] + b[i+1]
		d[i+2] = a[i+2] + b[i+2]
		d[i+3] = a[i+3] + b[i+3]
	}
}

func sub8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] - b[i]
		d[i+1] = a[i+1] - b[i+1]
		d[i+2] = a[i+2] - b[i+2]
		d[i+3] = a[i+3] - b[i+3]
	}
}

func mul8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = a[i] * b[i]
		d[i+1] = a[i+1] * b[i+1]
		d[i+2] = a[i+2] * b[i+2]
		d[i+3] = a[i+3] * b[i+3]
	}
}

func mach8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = mach(a[i], b[i])
		d[i+1] = mach(a[i+1], b[i+1])
		d[i+2] = mach(a[i+2], b[i+2])
		d[i+3] = mach(a[i+3], b[i+3])
	}
}

func mad8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	m := (*[8]uint32)(c.vec(&p.src2)[:8])
	for i := 0; i < 8; i += 4 {
		d[i] = a[i]*b[i] + m[i]
		d[i+1] = a[i+1]*b[i+1] + m[i+1]
		d[i+2] = a[i+2]*b[i+2] + m[i+2]
		d[i+3] = a[i+3]*b[i+3] + m[i+3]
	}
}

func min8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = min(a[i], b[i])
		d[i+1] = min(a[i+1], b[i+1])
		d[i+2] = min(a[i+2], b[i+2])
		d[i+3] = min(a[i+3], b[i+3])
	}
}

func max8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = max(a[i], b[i])
		d[i+1] = max(a[i+1], b[i+1])
		d[i+2] = max(a[i+2], b[i+2])
		d[i+3] = max(a[i+3], b[i+3])
	}
}

func abs8(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = abs(a[i])
		d[i+1] = abs(a[i+1])
		d[i+2] = abs(a[i+2])
		d[i+3] = abs(a[i+3])
	}
}

func avg8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := 0; i < 8; i += 4 {
		d[i] = avg(a[i], b[i])
		d[i+1] = avg(a[i+1], b[i+1])
		d[i+2] = avg(a[i+2], b[i+2])
		d[i+3] = avg(a[i+3], b[i+3])
	}
}

func math8(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes8(p)
	for i := range d {
		d[i] = isa.EvalMath(p.fn, a[i], b[i])
	}
}

// The W16 ALU handlers.

func mov16(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes16(p)
	*d = *a
}

func sel16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	f := &c.Flag
	for i := 0; i < 16; i += 4 {
		d[i] = sel(f[i], a[i], b[i])
		d[i+1] = sel(f[i+1], a[i+1], b[i+1])
		d[i+2] = sel(f[i+2], a[i+2], b[i+2])
		d[i+3] = sel(f[i+3], a[i+3], b[i+3])
	}
}

func and16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] & b[i]
		d[i+1] = a[i+1] & b[i+1]
		d[i+2] = a[i+2] & b[i+2]
		d[i+3] = a[i+3] & b[i+3]
	}
}

func or16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] | b[i]
		d[i+1] = a[i+1] | b[i+1]
		d[i+2] = a[i+2] | b[i+2]
		d[i+3] = a[i+3] | b[i+3]
	}
}

func xor16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] ^ b[i]
		d[i+1] = a[i+1] ^ b[i+1]
		d[i+2] = a[i+2] ^ b[i+2]
		d[i+3] = a[i+3] ^ b[i+3]
	}
}

func not16(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = ^a[i]
		d[i+1] = ^a[i+1]
		d[i+2] = ^a[i+2]
		d[i+3] = ^a[i+3]
	}
}

func shl16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = shl(a[i], b[i])
		d[i+1] = shl(a[i+1], b[i+1])
		d[i+2] = shl(a[i+2], b[i+2])
		d[i+3] = shl(a[i+3], b[i+3])
	}
}

func shr16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = shr(a[i], b[i])
		d[i+1] = shr(a[i+1], b[i+1])
		d[i+2] = shr(a[i+2], b[i+2])
		d[i+3] = shr(a[i+3], b[i+3])
	}
}

func asr16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = asr(a[i], b[i])
		d[i+1] = asr(a[i+1], b[i+1])
		d[i+2] = asr(a[i+2], b[i+2])
		d[i+3] = asr(a[i+3], b[i+3])
	}
}

func add16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] + b[i]
		d[i+1] = a[i+1] + b[i+1]
		d[i+2] = a[i+2] + b[i+2]
		d[i+3] = a[i+3] + b[i+3]
	}
}

func sub16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] - b[i]
		d[i+1] = a[i+1] - b[i+1]
		d[i+2] = a[i+2] - b[i+2]
		d[i+3] = a[i+3] - b[i+3]
	}
}

func mul16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i] * b[i]
		d[i+1] = a[i+1] * b[i+1]
		d[i+2] = a[i+2] * b[i+2]
		d[i+3] = a[i+3] * b[i+3]
	}
}

func mach16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = mach(a[i], b[i])
		d[i+1] = mach(a[i+1], b[i+1])
		d[i+2] = mach(a[i+2], b[i+2])
		d[i+3] = mach(a[i+3], b[i+3])
	}
}

func mad16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	m := c.vec(&p.src2)
	for i := 0; i < 16; i += 4 {
		d[i] = a[i]*b[i] + m[i]
		d[i+1] = a[i+1]*b[i+1] + m[i+1]
		d[i+2] = a[i+2]*b[i+2] + m[i+2]
		d[i+3] = a[i+3]*b[i+3] + m[i+3]
	}
}

func min16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = min(a[i], b[i])
		d[i+1] = min(a[i+1], b[i+1])
		d[i+2] = min(a[i+2], b[i+2])
		d[i+3] = min(a[i+3], b[i+3])
	}
}

func max16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = max(a[i], b[i])
		d[i+1] = max(a[i+1], b[i+1])
		d[i+2] = max(a[i+2], b[i+2])
		d[i+3] = max(a[i+3], b[i+3])
	}
}

func abs16(c *Core, p *pOp, _ int) {
	d, a, _ := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = abs(a[i])
		d[i+1] = abs(a[i+1])
		d[i+2] = abs(a[i+2])
		d[i+3] = abs(a[i+3])
	}
}

func avg16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := 0; i < 16; i += 4 {
		d[i] = avg(a[i], b[i])
		d[i+1] = avg(a[i+1], b[i+1])
		d[i+2] = avg(a[i+2], b[i+2])
		d[i+3] = avg(a[i+3], b[i+3])
	}
}

func math16(c *Core, p *pOp, _ int) {
	d, a, b := c.lanes16(p)
	for i := range d {
		d[i] = isa.EvalMath(p.fn, a[i], b[i])
	}
}

// The W8 compare handlers.

func eq8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] == b[i]
		f[i+1] = a[i+1] == b[i+1]
		f[i+2] = a[i+2] == b[i+2]
		f[i+3] = a[i+3] == b[i+3]
	}
}

func ne8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] != b[i]
		f[i+1] = a[i+1] != b[i+1]
		f[i+2] = a[i+2] != b[i+2]
		f[i+3] = a[i+3] != b[i+3]
	}
}

func lt8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] < b[i]
		f[i+1] = a[i+1] < b[i+1]
		f[i+2] = a[i+2] < b[i+2]
		f[i+3] = a[i+3] < b[i+3]
	}
}

func le8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] <= b[i]
		f[i+1] = a[i+1] <= b[i+1]
		f[i+2] = a[i+2] <= b[i+2]
		f[i+3] = a[i+3] <= b[i+3]
	}
}

func gt8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] > b[i]
		f[i+1] = a[i+1] > b[i+1]
		f[i+2] = a[i+2] > b[i+2]
		f[i+3] = a[i+3] > b[i+3]
	}
}

func ge8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = a[i] >= b[i]
		f[i+1] = a[i+1] >= b[i+1]
		f[i+2] = a[i+2] >= b[i+2]
		f[i+3] = a[i+3] >= b[i+3]
	}
}

func lts8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = int32(a[i]) < int32(b[i])
		f[i+1] = int32(a[i+1]) < int32(b[i+1])
		f[i+2] = int32(a[i+2]) < int32(b[i+2])
		f[i+3] = int32(a[i+3]) < int32(b[i+3])
	}
}

func gts8(c *Core, p *pOp, _ int) {
	f, a, b := c.flags8(p)
	for i := 0; i < 8; i += 4 {
		f[i] = int32(a[i]) > int32(b[i])
		f[i+1] = int32(a[i+1]) > int32(b[i+1])
		f[i+2] = int32(a[i+2]) > int32(b[i+2])
		f[i+3] = int32(a[i+3]) > int32(b[i+3])
	}
}

// The W16 compare handlers.

func eq16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] == b[i]
		f[i+1] = a[i+1] == b[i+1]
		f[i+2] = a[i+2] == b[i+2]
		f[i+3] = a[i+3] == b[i+3]
	}
}

func ne16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] != b[i]
		f[i+1] = a[i+1] != b[i+1]
		f[i+2] = a[i+2] != b[i+2]
		f[i+3] = a[i+3] != b[i+3]
	}
}

func lt16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] < b[i]
		f[i+1] = a[i+1] < b[i+1]
		f[i+2] = a[i+2] < b[i+2]
		f[i+3] = a[i+3] < b[i+3]
	}
}

func le16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] <= b[i]
		f[i+1] = a[i+1] <= b[i+1]
		f[i+2] = a[i+2] <= b[i+2]
		f[i+3] = a[i+3] <= b[i+3]
	}
}

func gt16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] > b[i]
		f[i+1] = a[i+1] > b[i+1]
		f[i+2] = a[i+2] > b[i+2]
		f[i+3] = a[i+3] > b[i+3]
	}
}

func ge16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = a[i] >= b[i]
		f[i+1] = a[i+1] >= b[i+1]
		f[i+2] = a[i+2] >= b[i+2]
		f[i+3] = a[i+3] >= b[i+3]
	}
}

func lts16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = int32(a[i]) < int32(b[i])
		f[i+1] = int32(a[i+1]) < int32(b[i+1])
		f[i+2] = int32(a[i+2]) < int32(b[i+2])
		f[i+3] = int32(a[i+3]) < int32(b[i+3])
	}
}

func gts16(c *Core, p *pOp, _ int) {
	f, a, b := c.flags16(p)
	for i := 0; i < 16; i += 4 {
		f[i] = int32(a[i]) > int32(b[i])
		f[i+1] = int32(a[i+1]) > int32(b[i+1])
		f[i+2] = int32(a[i+2]) > int32(b[i+2])
		f[i+3] = int32(a[i+3]) > int32(b[i+3])
	}
}
