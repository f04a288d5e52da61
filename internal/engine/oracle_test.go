package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// The oracle tests check the engine's lane bodies against definitions
// written independently of them: every handler Predecode selects
// (handlers.go), against isa.Eval and isa.EvalCmp; and the send body
// moveLanes, which both send paths and the functional reference loop
// run, against a byte-slice model. The differential tests cannot check
// a body the reference loop shares, since a bug inside it would be on
// both sides of the comparison.

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

var oraclePreds = []isa.PredMode{isa.PredNoneMode, isa.PredOn, isa.PredOff}

// oracleRecord pre-decodes in as the body of a SIMD16 kernel and returns
// its record, carrying the handlers Predecode selected for both loops.
func oracleRecord(in isa.Instruction) *pOp {
	k := &kernel.Kernel{Name: "oracle", SIMD: isa.W16, Blocks: []*kernel.Block{
		{Instrs: []isa.Instruction{in, {Op: isa.OpEnd, Width: isa.W16}}},
	}}
	return &Predecode(k).blocks[0].ops[0]
}

// oracleLeg is one way of executing an oracle record: its name and a
// function running it on a core.
type oracleLeg struct {
	name string
	run  func(c *Core)
}

// handlerLegs returns the legs that run p through the handlers Predecode
// selected, at the widths each loop passes, and records every handler
// they call in seen.
func handlerLegs(p *pOp, seen map[uintptr]bool) []oracleLeg {
	seen[reflect.ValueOf(p.run).Pointer()] = true
	seen[reflect.ValueOf(p.runDet).Pointer()] = true
	return []oracleLeg{
		{"run", func(c *Core) { p.run(c, p, p.width) }},
		{"runDet", func(c *Core) { p.runDet(c, p, p.widthDet) }},
	}
}

// requireHandlers fails t unless seen holds every handler in tables.
func requireHandlers(t *testing.T, seen map[uintptr]bool, tables ...[]handler) {
	t.Helper()
	for _, tab := range tables {
		for i, h := range tab {
			if pc := reflect.ValueOf(h).Pointer(); h != nil && !seen[pc] {
				t.Errorf("handler %s (table entry %d) is never selected", runtime.FuncForPC(pc).Name(), i)
			}
		}
	}
}

// TestOracleALU holds the handlers Predecode selects for each loop to
// isa.Eval lane by lane: every data opcode and math function, every
// width, every predication mode, with the destination distinct from the
// sources or aliasing src0 or src1. Lanes at or beyond the width and
// lanes predicated off must keep their value, and no other register or
// flag may change. Every ALU handler must be selected.
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
	seen := map[uintptr]bool{}
	for _, o := range ops {
		for _, width := range oracleWidths {
			for _, pred := range oraclePreds {
				for _, dst := range []isa.Reg{rd, r0, r1} {
					p := oracleRecord(isa.Instruction{Op: o.op, Fn: o.fn, Pred: pred, Dst: dst, Width: isa.Width(width),
						Src0: isa.R(r0), Src1: isa.R(r1), Src2: isa.R(r2)})
					legs := handlerLegs(p, seen)
					for trial := 0; trial < 4; trial++ {
						c := oracleCore(rng)
						want := *c
						for l := 0; l < width; l++ {
							if c.laneOn(pred, l) {
								want.GRF[dst][l] = isa.Eval(o.op, o.fn, c.GRF[r0][l], c.GRF[r1][l], c.GRF[r2][l], c.Flag[l])
							}
						}
						for _, leg := range legs {
							got := *c
							leg.run(&got)
							if d := firstDiff(&got, &want); d != "" {
								t.Fatalf("%s: %s fn %d, width %d, pred %d, dst r%d: %s", leg.name, o.op, o.fn, width, pred, dst, d)
							}
						}
					}
				}
			}
		}
	}
	requireHandlers(t, seen, alu8[:], alu16[:], []handler{mov1, aluGeneric})
}

// TestOracleCmp holds the handlers Predecode selects for each loop to
// isa.EvalCmp lane by lane for every condition (and two undefined ones,
// which compare false) at every width and under every predication mode,
// which a compare ignores, with distinct and with identical source
// registers. Flags at or beyond the width and every register must keep
// their value. Every compare handler must be selected.
func TestOracleCmp(t *testing.T) {
	const r0, r1 = 11, 12
	rng := rand.New(rand.NewSource(16))
	seen := map[uintptr]bool{}
	for cond := isa.CondNone; cond <= isa.CondGTS+1; cond++ {
		for _, width := range oracleWidths {
			for _, pred := range oraclePreds {
				for _, src1 := range []isa.Reg{r1, r0} {
					p := oracleRecord(isa.Instruction{Op: isa.OpCmp, Cond: cond, Pred: pred, Width: isa.Width(width),
						Src0: isa.R(r0), Src1: isa.R(src1)})
					legs := handlerLegs(p, seen)
					for trial := 0; trial < 4; trial++ {
						c := oracleCore(rng)
						want := *c
						for l := 0; l < width; l++ {
							want.Flag[l] = isa.EvalCmp(cond, c.GRF[r0][l], c.GRF[src1][l])
						}
						for _, leg := range legs {
							got := *c
							leg.run(&got)
							if d := firstDiff(&got, &want); d != "" {
								t.Fatalf("%s: cond %d, width %d, pred %d, src1 r%d: %s", leg.name, cond, width, pred, src1, d)
							}
						}
					}
				}
			}
		}
	}
	requireHandlers(t, seen, cmp8[:], cmp16[:], []handler{cmpGeneric})
}

// sendModel is the send oracle: gather, scatter, atomic add and block
// messages written from the message definitions over a plain byte
// slice, with its own offset wrapping. A gather, scatter or atomic add
// accesses the lanes below active that predication enables, each at its
// own address; a block message accesses lanes [0, width) at consecutive
// elements from lane 0's address, whatever the predication. It returns
// the accessed lanes' addresses in lane order, each read before its
// lane's access, which is what a Touch hook and the cache model must
// receive.
func sendModel(kind isa.MsgKind, mem []byte, c *Core, pred isa.PredMode, dst, addrReg, dataReg isa.Reg, elem, width, active int, st *Stats) []uint32 {
	n := uint64(len(mem))
	block := kind == isa.MsgLoadBlock || kind == isa.MsgStoreBlock
	base := c.GRF[addrReg][0]
	lanes := active
	if block {
		lanes = width
	}
	var addrs []uint32
	for l := 0; l < lanes; l++ {
		a := base + uint32(l*elem)
		if !block {
			if !c.laneOn(pred, l) {
				continue
			}
			a = c.GRF[addrReg][l]
		}
		addrs = append(addrs, a)
		o := int(uint64(a) % n)
		o -= o % elem
		var buf [8]byte
		copy(buf[:elem], mem[o:o+elem])
		old := binary.LittleEndian.Uint64(buf[:])
		v := uint64(c.GRF[dataReg][l])
		switch kind {
		case isa.MsgLoad, isa.MsgLoadBlock:
			c.GRF[dst][l] = uint32(old)
			st.BytesRead += uint64(elem)
		case isa.MsgStore, isa.MsgStoreBlock:
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
	return addrs
}

// sendCase is one message TestOracleSend runs: its kind and element
// size, the surface size, how lane addresses are drawn ("in-range",
// "wrapping" or "duplicate"), the predication mode, the destination
// register (which may alias the address or data register) and the
// active lane count, which is also a block message's width.
type sendCase struct {
	kind   isa.MsgKind
	elem   int
	size   int
	addrs  string
	pred   isa.PredMode
	dst    isa.Reg
	active int
}

// The address and data registers of every sendCase, and the binding
// table index of its surface.
const (
	sendAddrReg, sendDataReg isa.Reg = 20, 21
	sendSurf                         = 1
)

// recordingCache is a CacheModel that records the keys and write flag
// it is handed and answers with latencies and fill counts derived from
// the message length, so detSendMsg's conversions can be checked.
type recordingCache struct {
	keys  []uint64
	write bool
	calls int
}

func (r *recordingCache) AccessLanes(keys []uint64, write bool) (float64, uint64) {
	r.keys = append(r.keys, keys...)
	r.write = write
	r.calls++
	return 7.5 * float64(len(keys)), uint64(len(keys)) / 3
}

// TestOracleSend runs gathers, scatters, atomic adds and block messages
// of every element size on a power-of-two and a non-power-of-two
// surface, with in-range, wrapping and duplicate addresses and aliased
// registers, four ways: with no Touch hook (the direct-indexed path when
// unpredicated), with a recording Touch hook, through detSendMsg with a
// recording cache model, and through sendModel. Registers, flags and
// memory must be identical on all four and Stats on the functional
// ones. The hook and the cache model must each be called once, with the
// model's lane addresses as keys in lane order — so a destination that
// aliases the address register cannot redirect them — and the
// message's write flag; detSendMsg must turn the model's answer into
// the latency and DRAM bytes it defines.
func TestOracleSend(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	kinds := []isa.MsgKind{isa.MsgLoad, isa.MsgStore, isa.MsgAtomicAdd, isa.MsgLoadBlock, isa.MsgStoreBlock}
	for _, size := range []int{256, 200} {
		for _, kind := range kinds {
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
	width := sc.active
	addrs := sendModel(sc.kind, wantMem, &model, sc.pred, sc.dst, sendAddrReg, sendDataReg, sc.elem, width, sc.active, &want)
	wantKeys := make([]uint64, len(addrs))
	for i, a := range addrs {
		wantKeys[i] = sendSurf<<32 | uint64(a)
	}

	msg := isa.MsgDesc{Kind: sc.kind, Surface: sendSurf, ElemBytes: uint8(sc.elem)}
	for _, leg := range []string{"direct", "hooked", "detailed"} {
		surf, err := NewBuffer(sc.size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := surf.WriteAt(mem, 0); err != nil {
			t.Fatal(err)
		}
		surfs := []*Buffer{nil, surf}
		e := &Env{Core: *core}
		var touched []uint64
		touchWrite, touches := false, 0
		if leg == "hooked" {
			e.Touch = func(keys []uint64, write bool) {
				touched = append(touched, keys...)
				touchWrite = write
				touches++
			}
		}
		var st Stats
		if leg == "detailed" {
			const freq = 1.15
			rc := &recordingCache{}
			var ds DetailedStats
			lat, dram, err := e.detSendMsg(&Detailed{Caches: rc}, &msg, sc.dst, sendAddrReg, sendDataReg, sc.pred, surfs, width, sc.active, freq, 0, &ds)
			if err != nil {
				t.Fatalf("%+v %s: %v", sc, leg, err)
			}
			if rc.calls != 1 || !slices.Equal(rc.keys, wantKeys) || rc.write != sc.kind.Writes() {
				t.Fatalf("%+v %s: cache model saw %d calls, keys %x (write %v), want 1 call, keys %x (write %v)",
					sc, leg, rc.calls, rc.keys, rc.write, wantKeys, sc.kind.Writes())
			}
			wantLat := uint64(7.5 * float64(len(wantKeys)) * freq)
			if wantLat == 0 {
				wantLat = 1
			}
			if lat != wantLat || dram != 64*uint64(len(wantKeys)/3) || ds.LaneOps != uint64(len(wantKeys)) {
				t.Fatalf("%+v %s: latency %d, DRAM bytes %d, lane ops %d; want %d, %d, %d",
					sc, leg, lat, dram, ds.LaneOps, wantLat, 64*(len(wantKeys)/3), len(wantKeys))
			}
		} else if err := e.execSendMsg(&msg, sc.dst, sendAddrReg, sendDataReg, sc.pred, surfs, width, sc.active, 0, &st); err != nil {
			t.Fatalf("%+v %s: %v", sc, leg, err)
		}
		if d := firstDiff(&e.Core, &model); d != "" {
			t.Fatalf("%+v %s: %s", sc, leg, d)
		}
		if string(contents(surf)) != string(wantMem) {
			t.Fatalf("%+v %s: memory differs from the model", sc, leg)
		}
		if leg != "detailed" && st != want {
			t.Fatalf("%+v %s: stats %+v, want %+v", sc, leg, st, want)
		}
		if leg == "hooked" && (touches != 1 || !slices.Equal(touched, wantKeys) || touchWrite != sc.kind.Writes()) {
			t.Fatalf("%+v: Touch saw %d calls, keys %x (write %v), want 1 call, keys %x (write %v)",
				sc, touches, touched, touchWrite, wantKeys, sc.kind.Writes())
		}
	}
}
