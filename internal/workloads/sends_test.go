package workloads

import (
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/gtpin"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

// laneLoopSend reports whether the engine's direct-indexed lane loops
// take a data send (engine.Buffer's loadLanes, storeLanes and
// addLanes): it must be unpredicated or a block message, which ignores
// predication, and move 4-byte elements or be an 8-byte atomic add.
func laneLoopSend(in *isa.Instruction) bool {
	block := in.Msg.Kind == isa.MsgLoadBlock || in.Msg.Kind == isa.MsgStoreBlock
	elem := in.Msg.ElemBytes
	return (in.Pred == isa.PredNoneMode || block) && (elem == 4 || in.Msg.Kind == isa.MsgAtomicAdd && elem == 8)
}

// TestRosterSendsTakeLaneLoops pins the send traffic the engine's lane
// loops are sized for. For every roster app at tiny scale, native and
// retargeted to GENX, every data send (load, store, block load or
// store, atomic add) of the recorded kernels, and of the binaries
// GT-Pin's rewriter builds from them with MemTrace and Latency on, must
// take the lane loops. A send that fails here would run lane by lane
// through the per-lane accessors: correct, but slower, so a lane loop
// for its shape should come back with it.
func TestRosterSendsTakeLaneLoops(t *testing.T) {
	cache := gtpin.NewRewriteCache()
	sends := map[string]int{} // data sends seen per kernel set
	check := func(u Unit, set string, k *kernel.Kernel) {
		t.Helper()
		for bi, b := range k.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if !in.Op.IsSend() || !in.Msg.Kind.Reads() && !in.Msg.Kind.Writes() {
					continue
				}
				if sends[set]++; laneLoopSend(in) {
					continue
				}
				t.Errorf("%s: %s kernel %s, block %d, instruction %d: %s send of %d-byte elements, predication %d, takes the per-lane path",
					u.Key(), set, k.Name, bi, ii, in.Msg.Kind, in.Msg.ElemBytes, in.Pred)
			}
		}
	}
	for _, dialect := range []isa.Dialect{isa.DialectGEN, isa.DialectGENX} {
		for _, spec := range All() {
			u := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1, Dialect: dialect}
			dev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rec, _, err := u.record(dev)
			if err != nil {
				t.Fatalf("%s: %v", u.Key(), err)
			}
			for _, p := range rec.Programs {
				for _, k := range p.Kernels {
					check(u, "recorded", k)
				}
			}

			var bins []*jit.Binary
			idev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			var g *gtpin.GTPin
			if _, err := rec.Replay(idev, func(ctx *cl.Context) error {
				var aerr error
				g, aerr = gtpin.Attach(ctx, gtpin.Options{MemTrace: true, Latency: true, Cache: cache})
				ctx.AddBuildHook(func(bin *jit.Binary) (*jit.Binary, error) {
					bins = append(bins, bin)
					return bin, nil
				})
				return aerr
			}); err != nil {
				t.Fatalf("%s: instrumented replay: %v", u.Key(), err)
			}
			g.Detach()
			if len(bins) == 0 {
				t.Fatalf("%s: the instrumented replay built no binaries", u.Key())
			}
			for _, bin := range bins {
				k, err := bin.Kernel()
				if err != nil {
					t.Fatalf("%s: %v", u.Key(), err)
				}
				check(u, "instrumented", k)
			}
		}
	}
	if sends["recorded"] == 0 || sends["instrumented"] == 0 {
		t.Fatalf("data sends checked: %v; want some in both sets", sends)
	}
}
