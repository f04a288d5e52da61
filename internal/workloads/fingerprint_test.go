package workloads

import (
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/engine"
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
// which is sound only while no kernel changes after it is fingerprinted.
// For every roster program at tiny scale, native and translated to GENX,
// the recording's kernels are fingerprinted after the native run, then
// an instrumented replay with every GT-Pin tool rebuilds them from the
// same IR. Afterwards each stored fingerprint must equal a fresh one, as
// must those of every binary the replay built — translated and
// instrumented — decoded back to IR and fingerprinted the way a device
// does, through the engine's stream cache.
func TestRosterFingerprintsStay(t *testing.T) {
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
			idev, err := device.New(u.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			var g *gtpin.GTPin
			if _, err := rec.Replay(idev, func(ctx *cl.Context) error {
				ctx.AddBuildHook(keep) // compiled, and translated when the unit translates
				var aerr error
				g, aerr = gtpin.Attach(ctx, gtpin.Options{MemTrace: true, Latency: true})
				ctx.AddBuildHook(keep) // instrumented
				return aerr
			}); err != nil {
				t.Fatalf("%s: instrumented replay: %v", u.Key(), err)
			}
			g.Detach()
			if len(bins) == 0 {
				t.Fatalf("%s: the replay built no binaries", u.Key())
			}
			for _, bin := range bins {
				k, err := jit.Decode(bin)
				if err != nil {
					t.Fatalf("%s: %v", u.Key(), err)
				}
				if translate != nil && k.Dialect != *translate {
					t.Fatalf("%s: kernel %s built for %s", u.Key(), k.Name, k.Dialect)
				}
				engine.PredecodeFor(k)
				if stored[k], err = k.Fingerprint(); err != nil {
					t.Fatalf("%s: decoded kernel %s: %v", u.Key(), k.Name, err)
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
