package workloads

// LuxMark-style device scoring. In Section V-E the paper compares the
// raw performance of its two test GPUs with LuxMark, a cross-platform
// rendering benchmark (HD 4000: 269, HD 4600: 351), to establish that
// the architectures genuinely differ before validating selections across
// them. This file provides the equivalent: a fixed ray-tracing-flavoured
// rendering workload whose score is samples rendered per modelled second.

import (
	"fmt"

	"gtpin/internal/asm"
	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// luxScene builds the render program: a primary-ray pass, a shading
// pass, and a tone-map pass over a fixed scene buffer.
func luxScene() (*kernel.Program, error) {
	return asm.Program("luxmark",
		newRaycastAO("lux_trace", isa.W16),
		newFragShade("lux_shade", isa.W16),
		newStreamScale("lux_tonemap", isa.W8))
}

// luxFrames frames of luxGWS samples make one render.
const luxFrames, luxGWS = 24, 16384

// buildLuxMark instantiates the fixed render workload; it takes a Scale
// only to be a Spec builder and ignores it.
func buildLuxMark(Scale) (*App, error) {
	prog, err := luxScene()
	if err != nil {
		return nil, err
	}
	run := func(ctx *cl.Context) error {
		h := newHost(ctx)
		scene := h.buffer(1 << 19)
		fb := h.buffer(luxGWS*4 + 4096)
		h.upload(scene, 881)
		p := h.build(prog)
		trace := h.kernel(p, "lux_trace")
		shade := h.kernel(p, "lux_shade")
		tone := h.kernel(p, "lux_tonemap")
		for f := 0; f < luxFrames; f++ {
			h.dispatch(trace, luxGWS, []uint32{24}, scene, fb)
			h.dispatch(shade, luxGWS, []uint32{12, uint32(200 + f%8)}, scene, fb)
			h.dispatch(tone, luxGWS, []uint32{1, 3, 9}, fb, fb)
			h.finish()
		}
		return h.done()
	}
	return &App{Name: "luxmark", Programs: []*kernel.Program{prog}, Run: run}, nil
}

// LuxMarkScore renders the benchmark scene on the unit's device
// configuration, under its ISA configuration, and returns its score:
// kilo-samples per modelled GPU second (higher is better). The workload
// is fixed — the unit's application, scale, trial and fault model do
// not apply — so scores are comparable across configurations.
func LuxMarkScore(u Unit) (float64, error) {
	u.Spec, u.Faults = &Spec{Name: "luxmark", Build: buildLuxMark}, nil
	dev, err := device.New(u.Cfg)
	if err != nil {
		return 0, err
	}
	_, _, tr, err := u.record(dev)
	if err != nil {
		return 0, fmt.Errorf("luxmark: %w", err)
	}
	seconds := tr.TotalKernelTimeNs() * 1e-9
	if seconds <= 0 {
		return 0, fmt.Errorf("luxmark: no time measured")
	}
	return float64(luxFrames*luxGWS) / seconds / 1000, nil
}
