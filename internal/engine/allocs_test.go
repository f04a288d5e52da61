package engine

import (
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/cachesim"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// The allocation checks pin the engine's per-send and per-group paths
// at zero heap allocations: a send's lane keys live in Env scratch, and
// a slice of them handed to the Touch hook or the cache model must not
// move to the heap.

// allocSurfaces returns two zeroed surfaces for the allocation checks.
func allocSurfaces(t *testing.T) []*Buffer {
	t.Helper()
	var surfs []*Buffer
	for range 2 {
		b, err := NewBuffer(1 << 12)
		if err != nil {
			t.Fatal(err)
		}
		surfs = append(surfs, b)
	}
	return surfs
}

// TestRunGroupAllocs runs one functional group, with nil hooks, whose
// ALU and compare records reach a handler of every width — the scalar
// move, the W8 and W16 tables and the generic handlers at W2, W4 and
// under predication — and requires that it allocate nothing once its
// kernel is pre-decoded.
func TestRunGroupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a := asm.NewKernel("allocs", isa.W16)
	in, out := a.Surface(0), a.Surface(1)
	addr, v, s := a.Temp(), a.Temp(), a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, in, 4)
	a.SetWidth(isa.W1)
	a.MovI(s, 7)
	a.Add(s, asm.R(s), asm.R(v))
	a.SetWidth(isa.W2)
	a.Mul(v, asm.R(v), asm.R(s))
	a.SetWidth(isa.W4)
	a.Xor(v, asm.R(v), asm.I(0x55))
	a.SetWidth(isa.W8)
	a.Mad(v, asm.R(v), asm.R(s), asm.I(3))
	a.CmpI(isa.CondLT, v, 1<<20)
	a.SetWidth(0)
	a.Avg(v, asm.R(v), asm.R(s))
	a.CmpI(isa.CondGTS, v, 9)
	a.SetPred(isa.PredOn)
	a.Sub(v, asm.R(v), asm.I(1))
	a.SetPred(isa.PredNoneMode)
	a.Store(out, addr, v, 4)
	a.End()
	k := a.MustBuild()

	e := &Env{}
	e.Watchdog.Reset(0)
	surfs := allocSurfaces(t)
	var st Stats
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.RunGroup(k, nil, surfs, 1, 16, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunGroup allocates %v times per group, want 0", allocs)
	}
	widths := map[int]bool{}
	for _, p := range e.predecoded(k).blocks[0].ops {
		if p.run != nil {
			widths[p.width] = true
		}
	}
	if len(widths) != len(isa.Widths) {
		t.Fatalf("the group's handlers run at widths %v, want every width", widths)
	}
}

// TestRunGroupDetailedAllocs runs one cycle-level group whose sends
// cover every data message kind, predicated and not, and requires that
// it allocate nothing once its kernel is pre-decoded and the cache pages
// it touches exist.
func TestRunGroupDetailedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a := asm.NewKernel("allocs", isa.W16)
	in, out := a.Surface(0), a.Surface(1)
	addr, v, old := a.Temp(), a.Temp(), a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, in, 4)
	a.AtomicAdd(old, out, addr, v, 4)
	a.LoadBlock(v, addr, in, 4)
	a.StoreBlock(out, addr, v, 4)
	a.CmpI(isa.CondLT, v, 8)
	a.SetPred(isa.PredOn)
	a.Load(v, addr, in, 2)
	a.Store(out, addr, old, 4)
	a.SetPred(isa.PredNoneMode)
	a.End()
	k := a.MustBuild()

	h, err := cachesim.NewHierarchy(80, cachesim.HD4000L3(), cachesim.HD4000LLC())
	if err != nil {
		t.Fatal(err)
	}
	det := &Detailed{Depth: 4, Caches: h, Timer: func(c uint64) uint32 { return uint32(c) }}
	e := &Env{}
	e.Watchdog.Reset(0)
	surfs := allocSurfaces(t)
	var ds DetailedStats
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := e.RunGroupDetailed(det, k, nil, surfs, 1, 16, 1.15, &ds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunGroupDetailed allocates %v times per group, want 0", allocs)
	}
	if h.Levels()[0].Stats().Accesses == 0 {
		t.Fatal("the group reached no cache")
	}
}

// TestExecSendMsgHookedAllocs requires that a functional send with a
// Touch hook installed allocate nothing, for every data message kind,
// predicated and not.
func TestExecSendMsgHookedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e := &Env{}
	for l := range e.Core.GRF[sendAddrReg] {
		e.Core.GRF[sendAddrReg][l] = uint32(l * 4)
		e.Core.Flag[l] = l%2 == 0
	}
	observed := 0
	e.Touch = func(keys []uint64, write bool) { observed += len(keys) }
	surfs := allocSurfaces(t)
	var msgs []isa.MsgDesc
	for _, kind := range []isa.MsgKind{isa.MsgLoad, isa.MsgStore, isa.MsgAtomicAdd, isa.MsgLoadBlock, isa.MsgStoreBlock} {
		msgs = append(msgs, isa.MsgDesc{Kind: kind, Surface: 1, ElemBytes: 4})
	}
	preds := []isa.PredMode{isa.PredNoneMode, isa.PredOn}
	var st Stats
	allocs := testing.AllocsPerRun(50, func() {
		for i := range msgs {
			for _, pred := range preds {
				if err := e.execSendMsg(&msgs[i], 22, sendAddrReg, sendDataReg, pred, surfs, 16, 16, 0, &st); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a hooked send allocates %v times per round, want 0", allocs)
	}
	if observed == 0 {
		t.Fatal("the Touch hook observed nothing")
	}
}
