package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gtpin/internal/cachesim"
	"gtpin/internal/engine"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
	"gtpin/internal/testgen"
)

// This file is the predecode differential fuzz: the pre-decoded
// threaded-code production loops (RunGroup, RunGroupDetailed) are run
// against the straight-from-IR reference loops in reference_test.go on
// randomly generated kernels — with timer sends, fully-predicated-off
// regions, scalar ops and ops wider than the kernel enabled — and every
// observable must agree: architectural
// registers, memory images, dynamic block traces, work counters,
// returned cycles, DRAM traffic, and cache statistics. A bug in the predecode lowering
// (operand resolution, scoreboard source sets, issue costs, watchdog
// accounting) cannot also be present in the reference interpreter, so it
// surfaces here as a divergence.

// fidelityEnv builds an Env with deterministic hooks and freshly seeded
// surfaces, returning the env, the surfaces, and the block-trace sink.
func fidelityEnv(t *testing.T) (*engine.Env, []*engine.Buffer, *[]int) {
	t.Helper()
	in, err := engine.NewBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.NewBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	data := in.Bytes()
	for i := range data {
		data[i] = byte(i*11 + 9)
	}
	e := &engine.Env{}
	e.Watchdog.Reset(0)
	e.MemStallCycles = 17
	// Deterministic timer: both loops present identical cycle counts, so
	// a live-looking hook still compares equal — and a lowering bug that
	// perturbs cycle accounting shows up in the stored timer values.
	e.Timer = func(groupCycles uint64) uint32 { return uint32(groupCycles)*2654435761 + 12345 }
	trace := &[]int{}
	e.OnBlock = func(b int) { *trace = append(*trace, b) }
	return e, []*engine.Buffer{in, out}, trace
}

func newDetailed(t *testing.T) *engine.Detailed {
	t.Helper()
	h, err := cachesim.NewHierarchy(80, cachesim.HD4000L3(), cachesim.HD4000LLC())
	if err != nil {
		t.Fatal(err)
	}
	det := &engine.Detailed{Depth: 4, Caches: h}
	det.Timer = func(cycle uint64) uint32 { return uint32(cycle)*2246822519 + 777 }
	return det
}

// cacheState is a hierarchy's observable state: every level's Stats and
// the accesses that missed them all.
func cacheState(det *engine.Detailed) ([]cachesim.Stats, uint64) {
	h := det.Caches.(*cachesim.Hierarchy)
	var st []cachesim.Stats
	for _, c := range h.Levels() {
		st = append(st, c.Stats())
	}
	return st, h.MemAccesses
}

// widthMix records whether any generated kernel held a scalar (W1)
// instruction, the width of GT-Pin's counter moves, and one wider than
// its kernel's SIMD width, for which the two loops select handlers at
// different widths.
type widthMix struct{ scalar, wide bool }

func (m *widthMix) add(k *kernel.Kernel) {
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			m.scalar = m.scalar || in.Width == isa.W1
			m.wide = m.wide || in.Width > k.SIMD
		}
	}
}

// require fails t unless the trials covered both kinds of instruction.
func (m *widthMix) require(t *testing.T) {
	t.Helper()
	if !m.scalar || !m.wide {
		t.Fatalf("generated kernels cover scalar ops %v and ops wider than the kernel %v, want both", m.scalar, m.wide)
	}
}

// TestPredecodeDifferentialFunctional fuzzes RunGroup against RunGroupRef.
func TestPredecodeDifferentialFunctional(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	var mix widthMix
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9500 + trial)))
			cfg := testgen.FidelityConfig()
			k := testgen.Kernel(rng, fmt.Sprintf("pdf%d", trial), cfg)
			mix.add(k)
			width := int(k.SIMD)
			args := []uint32{uint32(1 + trial%5)}

			for _, active := range []int{width, width - 3, 1} {
				refEnv, refSurfs, refTrace := fidelityEnv(t)
				preEnv, preSurfs, preTrace := fidelityEnv(t)
				var refStats, preStats engine.Stats

				for group := 0; group < 3; group++ {
					if err := refEnv.RunGroupRef(k, args, refSurfs, group, active, &refStats); err != nil {
						t.Fatal(err)
					}
					if err := preEnv.RunGroup(k, args, preSurfs, group, active, &preStats); err != nil {
						t.Fatal(err)
					}
					if refEnv.Core.GRF != preEnv.Core.GRF {
						t.Fatalf("active %d group %d: architectural registers diverged", active, group)
					}
				}
				if refStats != preStats {
					t.Fatalf("active %d: stats diverged: ref %+v, predecoded %+v", active, refStats, preStats)
				}
				if !reflect.DeepEqual(*refTrace, *preTrace) {
					t.Fatalf("active %d: block traces diverged (%d vs %d entries)", active, len(*refTrace), len(*preTrace))
				}
				for s := range refSurfs {
					if !bytes.Equal(refSurfs[s].Bytes(), preSurfs[s].Bytes()) {
						t.Fatalf("active %d: surface %d memory images diverged", active, s)
					}
				}
			}
		})
	}
	mix.require(t)
}

// TestPredecodeDifferentialDetailed fuzzes RunGroupDetailed against
// RunGroupDetailedRef, including cycle counts, DRAM traffic and, after
// every group, each cache level's Stats and the hierarchy's memory
// accesses — the quantities the detailed simulator's reports are built
// from.
func TestPredecodeDifferentialDetailed(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	var mix widthMix
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9600 + trial)))
			cfg := testgen.FidelityConfig()
			k := testgen.Kernel(rng, fmt.Sprintf("pdd%d", trial), cfg)
			mix.add(k)
			width := int(k.SIMD)
			args := []uint32{uint32(1 + trial%5)}
			const freq = 1.15

			for _, active := range []int{width, width - 3, 1} {
				refEnv, refSurfs, refTrace := fidelityEnv(t)
				preEnv, preSurfs, preTrace := fidelityEnv(t)
				refDet := newDetailed(t)
				preDet := newDetailed(t)
				var refDS, preDS engine.DetailedStats

				for group := 0; group < 3; group++ {
					refCycles, refMiss, err := refEnv.RunGroupDetailedRef(refDet, k, args, refSurfs, group, active, freq, &refDS)
					if err != nil {
						t.Fatal(err)
					}
					preCycles, preMiss, err := preEnv.RunGroupDetailed(preDet, k, args, preSurfs, group, active, freq, &preDS)
					if err != nil {
						t.Fatal(err)
					}
					if refCycles != preCycles {
						t.Fatalf("active %d group %d: cycles diverged: ref %d, predecoded %d", active, group, refCycles, preCycles)
					}
					if refMiss != preMiss {
						t.Fatalf("active %d group %d: DRAM traffic diverged: ref %d, predecoded %d", active, group, refMiss, preMiss)
					}
					if refEnv.Core.GRF != preEnv.Core.GRF {
						t.Fatalf("active %d group %d: architectural registers diverged", active, group)
					}
					refSt, refMem := cacheState(refDet)
					preSt, preMem := cacheState(preDet)
					if !reflect.DeepEqual(refSt, preSt) || refMem != preMem {
						t.Fatalf("active %d group %d: cache state diverged: ref %+v (%d to memory), predecoded %+v (%d to memory)",
							active, group, refSt, refMem, preSt, preMem)
					}
				}
				if refDS != preDS {
					t.Fatalf("active %d: detailed stats diverged: ref %+v, predecoded %+v", active, refDS, preDS)
				}
				if !reflect.DeepEqual(*refTrace, *preTrace) {
					t.Fatalf("active %d: block traces diverged (%d vs %d entries)", active, len(*refTrace), len(*preTrace))
				}
				for s := range refSurfs {
					if !bytes.Equal(refSurfs[s].Bytes(), preSurfs[s].Bytes()) {
						t.Fatalf("active %d: surface %d memory images diverged", active, s)
					}
				}
			}
		})
	}
	mix.require(t)
}

// TestPredecodeFunctionalDetailedAgree closes the triangle: on the same
// generated kernels, the predecoded functional and predecoded detailed
// loops must produce identical architectural results (timer sends
// excluded — the two modes define different timebases, which is why the
// cross-backend tests pin them with a shared hook).
func TestPredecodeFunctionalDetailedAgree(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9700 + trial)))
			cfg := testgen.DefaultConfig()
			cfg.PredOff = true // timers stay off: modes have different timebases
			k := testgen.Kernel(rng, fmt.Sprintf("pda%d", trial), cfg)
			width := int(k.SIMD)
			args := []uint32{uint32(2 + trial%4)}

			fnEnv, fnSurfs, fnTrace := fidelityEnv(t)
			dtEnv, dtSurfs, dtTrace := fidelityEnv(t)
			det := newDetailed(t)
			var st engine.Stats
			var ds engine.DetailedStats

			for group := 0; group < 2; group++ {
				if err := fnEnv.RunGroup(k, args, fnSurfs, group, width, &st); err != nil {
					t.Fatal(err)
				}
				if _, _, err := dtEnv.RunGroupDetailed(det, k, args, dtSurfs, group, width, 1.15, &ds); err != nil {
					t.Fatal(err)
				}
				if fnEnv.Core.GRF != dtEnv.Core.GRF {
					t.Fatalf("group %d: functional and detailed registers diverged", group)
				}
			}
			if st.Instrs != ds.Instrs {
				t.Fatalf("instruction counts diverged: functional %d, detailed %d", st.Instrs, ds.Instrs)
			}
			if !reflect.DeepEqual(*fnTrace, *dtTrace) {
				t.Fatal("block traces diverged")
			}
			for s := range fnSurfs {
				if !bytes.Equal(fnSurfs[s].Bytes(), dtSurfs[s].Bytes()) {
					t.Fatalf("surface %d memory images diverged", s)
				}
			}
		})
	}
}
