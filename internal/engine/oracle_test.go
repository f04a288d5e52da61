package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gtpin/internal/isa"
)

// The oracle tests check the lane bodies that every functional loop
// shares — execALUVec, execCmp and the send body — against definitions
// written independently of them. The differential tests cannot: the
// reference loop in reference_test.go runs these same bodies, so a bug
// inside one of them would be on both sides of the comparison.

// oracleValue draws an operand that often lands on an edge case: zero, one,
// all ones, the sign bit, a shift amount around 31, or a small divisor.
func oracleValue(rng *rand.Rand) uint32 {
	switch rng.Intn(4) {
	case 0:
		return []uint32{0, 1, 2, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF}[rng.Intn(10)]
	case 1:
		return uint32(rng.Intn(64))
	}
	return rng.Uint32()
}

// oracleCore fills every register lane and flag of a core at random.
func oracleCore(rng *rand.Rand) *Core {
	c := new(Core)
	for r := range c.GRF {
		for l := range c.GRF[r] {
			c.GRF[r][l] = oracleValue(rng)
		}
	}
	for l := range c.Flag {
		c.Flag[l] = rng.Intn(2) == 0
	}
	return c
}

// firstDiff names the first register lane or flag where two cores differ.
func firstDiff(got, want *Core) string {
	for r := range got.GRF {
		for l := range got.GRF[r] {
			if got.GRF[r][l] != want.GRF[r][l] {
				return fmt.Sprintf("r%d lane %d: got %#x, want %#x", r, l, got.GRF[r][l], want.GRF[r][l])
			}
		}
	}
	for l := range got.Flag {
		if got.Flag[l] != want.Flag[l] {
			return fmt.Sprintf("flag lane %d: got %v, want %v", l, got.Flag[l], want.Flag[l])
		}
	}
	return ""
}

var oracleWidths = []int{1, 2, 4, 8, 16}

// TestOracleALU holds execALUVec to isa.Eval lane by lane: every data
// opcode and math function, every width, every predication mode, with
// the destination distinct from the sources or aliasing src0 or src1.
// Lanes at or beyond the width and lanes predicated off must keep their
// value, and no other register or flag may change.
func TestOracleALU(t *testing.T) {
	type alu struct {
		op isa.Opcode
		fn isa.MathFn
	}
	var ops []alu
	for op := isa.OpInvalid + 1; int(op) < isa.NumOpcodes; op++ {
		switch {
		case OpClass[op] != ClassALU:
		case op == isa.OpMath:
			for fn := isa.MathInv; fn <= isa.MathCos; fn++ {
				ops = append(ops, alu{op, fn})
			}
		default:
			ops = append(ops, alu{op, 0})
		}
	}
	const r0, r1, r2, rd = 11, 12, 13, 14
	rng := rand.New(rand.NewSource(15))
	for _, o := range ops {
		for _, width := range oracleWidths {
			for _, pred := range []isa.PredMode{isa.PredNoneMode, isa.PredOn, isa.PredOff} {
				for _, dst := range []isa.Reg{rd, r0, r1} {
					for trial := 0; trial < 4; trial++ {
						c := oracleCore(rng)
						want := *c
						for l := 0; l < width; l++ {
							if c.laneOn(pred, l) {
								want.GRF[dst][l] = isa.Eval(o.op, o.fn, c.GRF[r0][l], c.GRF[r1][l], c.GRF[r2][l], c.Flag[l])
							}
						}
						var s2 *[isa.MaxWidth]uint32
						if o.op == isa.OpMad {
							s2 = &c.GRF[r2]
						}
						c.execALUVec(o.op, o.fn, pred, dst, &c.GRF[r0], &c.GRF[r1], s2, width)
						if d := firstDiff(c, &want); d != "" {
							t.Fatalf("%s fn %d, width %d, pred %d, dst r%d: %s", o.op, o.fn, width, pred, dst, d)
						}
					}
				}
			}
		}
	}
}

// TestOracleCmp holds execCmp to isa.EvalCmp lane by lane for every
// condition (and an undefined one, which compares false) at every width,
// with distinct and with identical source registers. Flags at or beyond
// the width and every register must keep their value.
func TestOracleCmp(t *testing.T) {
	const r0, r1 = 11, 12
	rng := rand.New(rand.NewSource(16))
	for cond := isa.CondNone; cond <= isa.CondGTS+1; cond++ {
		for _, width := range oracleWidths {
			for _, src1 := range []isa.Reg{r1, r0} {
				for trial := 0; trial < 4; trial++ {
					c := oracleCore(rng)
					want := *c
					for l := 0; l < width; l++ {
						want.Flag[l] = isa.EvalCmp(cond, c.GRF[r0][l], c.GRF[src1][l])
					}
					c.execCmp(cond, &c.GRF[r0], &c.GRF[src1], width)
					if d := firstDiff(c, &want); d != "" {
						t.Fatalf("cond %d, width %d, src1 r%d: %s", cond, width, src1, d)
					}
				}
			}
		}
	}
}

// sendModel is the send oracle: gather, scatter and atomic add written
// from the message definitions over a plain byte slice, with its own
// offset wrapping, for the lanes below active that predication enables.
func sendModel(kind isa.MsgKind, mem []byte, c *Core, pred isa.PredMode, dst, addrReg, dataReg isa.Reg, elem, active int, st *Stats) {
	n := uint64(len(mem))
	for l := 0; l < active; l++ {
		if !c.laneOn(pred, l) {
			continue
		}
		o := int(uint64(c.GRF[addrReg][l]) % n)
		o -= o % elem
		var buf [8]byte
		copy(buf[:elem], mem[o:o+elem])
		old := binary.LittleEndian.Uint64(buf[:])
		v := uint64(c.GRF[dataReg][l])
		switch kind {
		case isa.MsgLoad:
			c.GRF[dst][l] = uint32(old)
			st.BytesRead += uint64(elem)
		case isa.MsgStore:
			binary.LittleEndian.PutUint64(buf[:], v)
			copy(mem[o:o+elem], buf[:elem])
			st.BytesWritten += uint64(elem)
		case isa.MsgAtomicAdd:
			binary.LittleEndian.PutUint64(buf[:], old+v)
			copy(mem[o:o+elem], buf[:elem])
			c.GRF[dst][l] = uint32(old)
			st.BytesRead += uint64(elem)
			st.BytesWritten += uint64(elem)
		}
	}
	st.Sends++
}

// sendCase is one message TestOracleSend runs: its kind and element
// size, the surface size, how lane addresses are drawn ("in-range",
// "wrapping" or "duplicate"), the predication mode, the destination
// register (which may alias the address or data register) and the
// active lane count.
type sendCase struct {
	kind   isa.MsgKind
	elem   int
	size   int
	addrs  string
	pred   isa.PredMode
	dst    isa.Reg
	active int
}

// The address and data registers of every sendCase.
const sendAddrReg, sendDataReg isa.Reg = 20, 21

// TestOracleSend runs gathers, scatters and atomic adds of every element
// size on a power-of-two and a non-power-of-two surface, with in-range,
// wrapping and duplicate addresses and aliased registers, three ways:
// with no Touch hook (the direct-indexed path when unpredicated), with a
// no-op Touch hook (the per-lane path), and through sendModel. Registers,
// flags, memory and Stats must be identical on all three.
func TestOracleSend(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{256, 200} {
		for _, kind := range []isa.MsgKind{isa.MsgLoad, isa.MsgStore, isa.MsgAtomicAdd} {
			for _, elem := range []int{1, 2, 4, 8} {
				for _, addrs := range []string{"in-range", "wrapping", "duplicate"} {
					for _, pred := range []isa.PredMode{isa.PredNoneMode, isa.PredOn} {
						for _, dst := range []isa.Reg{22, sendAddrReg, sendDataReg} {
							for _, active := range []int{16, 11, 1} {
								sendCase{kind, elem, size, addrs, pred, dst, active}.check(t, rng)
							}
						}
					}
				}
			}
		}
	}
}

func (sc sendCase) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	core := oracleCore(rng)
	for l := range core.GRF[sendAddrReg] {
		a := uint32(rng.Intn(sc.size))
		switch sc.addrs {
		case "wrapping":
			a = uint32(sc.size) + uint32(rng.Intn(3*sc.size))
			if l%4 == 0 {
				a = 0xFFFFFFFF - uint32(rng.Intn(64))
			}
		case "duplicate":
			a = []uint32{8, 9, 8 + uint32(sc.size)}[l%3]
		}
		core.GRF[sendAddrReg][l] = a
	}
	mem := make([]byte, sc.size)
	rng.Read(mem)

	var want Stats
	model := *core
	wantMem := append([]byte(nil), mem...)
	sendModel(sc.kind, wantMem, &model, sc.pred, sc.dst, sendAddrReg, sendDataReg, sc.elem, sc.active, &want)

	msg := isa.MsgDesc{Kind: sc.kind, ElemBytes: uint8(sc.elem)}
	for _, hooked := range []bool{false, true} {
		surf, err := NewBuffer(sc.size)
		if err != nil {
			t.Fatal(err)
		}
		copy(surf.Bytes(), mem)
		e := &Env{Core: *core}
		touches := 0
		if hooked {
			e.Touch = func(uint64, bool) { touches++ }
		}
		var st Stats
		if err := e.execSendMsg(&msg, sc.dst, sendAddrReg, sendDataReg, sc.pred, []*Buffer{surf}, 16, sc.active, 0, &st); err != nil {
			t.Fatalf("%+v hooked=%v: %v", sc, hooked, err)
		}
		if d := firstDiff(&e.Core, &model); d != "" {
			t.Fatalf("%+v hooked=%v: %s", sc, hooked, d)
		}
		if string(surf.Bytes()) != string(wantMem) {
			t.Fatalf("%+v hooked=%v: memory differs from the model", sc, hooked)
		}
		if st != want {
			t.Fatalf("%+v hooked=%v: stats %+v, want %+v", sc, hooked, st, want)
		}
		if hooked && sc.pred == isa.PredNoneMode && touches != sc.active {
			t.Fatalf("%+v: per-lane path observed %d accesses, want %d", sc, touches, sc.active)
		}
	}
}
