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

// freshFingerprint computes k's fingerprint on a copy that has none
// stored, so it reflects the kernel's content now.
func freshFingerprint(k *kernel.Kernel) (string, error) {
	c := &kernel.Kernel{Name: k.Name, Dialect: k.Dialect, SIMD: k.SIMD, Blocks: k.Blocks,
		NumArgs: k.NumArgs, NumSurfaces: k.NumSurfaces}
	return c.Fingerprint()
}

// TestRosterFingerprintsStay: Kernel.Fingerprint keeps its first result,
// which is sound only while no kernel changes after it is fingerprinted,
// and a binary's decoded kernel (jit.Binary.Kernel) is shared by every
// device that runs it, which is sound only while nothing edits it. For
// every roster program at tiny scale, native and translated to GENX, the
// recording's kernels are fingerprinted after the native run; then a
// plain replay and an instrumented replay with every GT-Pin tool rebuild
// them from the same IR. Every binary those replays built — compiled,
// translated and instrumented — must keep a decoded kernel whose
// fingerprint equals that of a fresh jit.Decode, and afterwards every
// stored fingerprint must equal a fresh one. The rewrite cache is the
// test's own, so the rewriter decodes each distinct binary once here
// whatever ran before: a rewriter that edited the binary's shared kernel
// instead of its own decode fails.
func TestRosterFingerprintsStay(t *testing.T) {
	cache := gtpin.NewRewriteCache()
	genx := isa.DialectGENX
	for _, translate := range []*isa.Dialect{nil, &genx} {
		for _, spec := range All() {
			u := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1, Translate: translate}
			dev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rec, _, err := u.record(dev)
			if err != nil {
				t.Fatalf("%s: %v", u.Key(), err)
			}
			stored := make(map[*kernel.Kernel]string)
			for _, p := range rec.Programs {
				for _, k := range p.Kernels {
					if stored[k], err = k.Fingerprint(); err != nil {
						t.Fatalf("%s: kernel %s: %v", u.Key(), k.Name, err)
					}
				}
			}

			var bins []*jit.Binary
			keep := func(bin *jit.Binary) (*jit.Binary, error) {
				bins = append(bins, bin)
				return bin, nil
			}
			ndev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Replay(ndev, func(ctx *cl.Context) error {
				ctx.AddBuildHook(keep) // compiled, and translated when the unit translates
				return nil
			}); err != nil {
				t.Fatalf("%s: native replay: %v", u.Key(), err)
			}
			idev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			var g *gtpin.GTPin
			if _, err := rec.Replay(idev, func(ctx *cl.Context) error {
				ctx.AddBuildHook(keep) // the rewriter's input
				var aerr error
				g, aerr = gtpin.Attach(ctx, gtpin.Options{MemTrace: true, Latency: true, Cache: cache})
				ctx.AddBuildHook(keep) // instrumented
				return aerr
			}); err != nil {
				t.Fatalf("%s: instrumented replay: %v", u.Key(), err)
			}
			g.Detach()
			if len(bins) == 0 {
				t.Fatalf("%s: the replays built no binaries", u.Key())
			}
			for _, bin := range bins {
				k, err := bin.Kernel()
				if err != nil {
					t.Fatalf("%s: %v", u.Key(), err)
				}
				if translate != nil && k.Dialect != *translate {
					t.Fatalf("%s: kernel %s built for %s", u.Key(), k.Name, k.Dialect)
				}
				fresh, err := jit.Decode(bin)
				if err != nil {
					t.Fatalf("%s: %v", u.Key(), err)
				}
				want, err := fresh.Fingerprint()
				if err != nil {
					t.Fatalf("%s: decoded kernel %s: %v", u.Key(), k.Name, err)
				}
				if stored[k], err = k.Fingerprint(); err != nil || stored[k] != want {
					t.Errorf("%s: kernel %s: the binary keeps a kernel fingerprinted %s (%v), a fresh decode %s",
						u.Key(), k.Name, stored[k], err, want)
				}
			}

			for k, fp := range stored {
				fresh, err := freshFingerprint(k)
				if err != nil {
					t.Fatalf("%s: kernel %s: %v", u.Key(), k.Name, err)
				}
				if got, _ := k.Fingerprint(); got != fp || fresh != fp {
					t.Errorf("%s: kernel %s (%s): stored %s, now %s, fresh %s", u.Key(), k.Name, k.Dialect, fp, got, fresh)
				}
			}
		}
	}
}
