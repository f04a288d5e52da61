// Package workloads implements the 25 benchmark applications of Table I
// as synthetic OpenCL-style programs: 15 CompuBench CL 1.2 applications
// (desktop and mobile), 3 SiSoftware Sandra 2014 benchmarks, and 7 Sony
// Vegas Pro rendering regions.
//
// The commercial binaries are unavailable, so each application is
// reconstructed from the paper's characterization: its kernels are real
// programs in the kernel IR (blurs actually convolve, hashes actually
// mix, fractals actually iterate with data-dependent exits), and its host
// driver issues an API-call stream shaped to the paper's reported
// structure — API-call mix (Figure 3a), unique kernel and basic-block
// counts (Figure 3b), kernel invocation and instruction volumes
// (Figure 3c), instruction and SIMD mixes (Figure 4a/b), and memory
// read/write behaviour (Figure 4c).
//
// Dynamic instruction volume is scaled by Scale.InstrFactor relative to
// the paper (ScaleFull ≈ 1e-4 of the paper's 308-billion-instruction
// average); counts of structural events (kernels, invocations, API
// calls) are kept at paper magnitude under ScaleFull and reduced under
// the test scales.
package workloads

import (
	"fmt"

	"gtpin/internal/cl"
	"gtpin/internal/kernel"
)

// Scale controls workload size.
type Scale struct {
	Name string
	// Iters scales inner-loop trip counts (dynamic instructions per
	// invocation).
	Iters float64
	// Invs scales kernel invocation counts (and with them API calls).
	Invs float64
	// Data scales buffer element counts / global work sizes.
	Data float64
}

// The standard scales. ScaleFull keeps event counts at paper magnitude
// with instructions at ~1e-4 of the paper's; the reduced scales keep the
// same program structure for fast tests.
var (
	ScaleFull  = Scale{Name: "full", Iters: 1, Invs: 1, Data: 1}
	ScaleSmall = Scale{Name: "small", Iters: 0.5, Invs: 0.12, Data: 0.5}
	ScaleTiny  = Scale{Name: "tiny", Iters: 0.25, Invs: 0.03, Data: 0.25}
)

// ParseScale maps a scale name (full, small, tiny) to its preset.
func ParseScale(name string) (Scale, error) {
	for _, sc := range []Scale{ScaleFull, ScaleSmall, ScaleTiny} {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want full, small, or tiny)", name)
}

// N scales a base count, with a floor of min.
func (s Scale) N(base float64, factor float64, min int) int {
	n := int(base*factor + 0.5)
	if n < min {
		n = min
	}
	return n
}

// PaperStats records the values the paper reports for an application,
// where given; zero fields mean the paper does not break the number out.
// EXPERIMENTS.md compares these against measured values.
type PaperStats struct {
	APICalls      int
	KernelPct     float64
	SyncPct       float64
	UniqueKernels int
	UniqueBlocks  int
	Invocations   int
	Instrs        float64 // paper-scale dynamic instructions
	BytesRead     float64 // paper-scale bytes
	BytesWritten  float64
}

// App is one instantiated benchmark: its program IR and the host driver
// that executes it against a context.
type App struct {
	Name  string
	Suite string
	Paper PaperStats
	// Programs holds the program IR in creation order (needed to finalize
	// CoFluent recordings).
	Programs []*kernel.Program
	// Run drives the application: creates buffers and kernels, enqueues
	// work, and synchronizes, leaving the queue drained.
	Run func(ctx *cl.Context) error
}

// Spec is a registered benchmark: metadata plus its builder.
type Spec struct {
	Name  string
	Suite string
	Paper PaperStats
	// Build instantiates the application at a scale. Builders are
	// deterministic: the same scale yields the same program and driver
	// behaviour.
	Build func(sc Scale) (*App, error)
}

var registry []*Spec

func register(s *Spec) {
	registry = append(registry, s)
}

// All returns the 25 registered benchmarks in Table I / figure order
// (registration order: CompuBench desktop, CompuBench mobile, Sandra,
// Sony Vegas).
func All() []*Spec {
	out := make([]*Spec, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named benchmark, or an error listing valid names.
func ByName(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, names)
}

// Suite names.
const (
	SuiteCompuBenchDesktop = "CompuBench CL 1.2 Desktop"
	SuiteCompuBenchMobile  = "CompuBench CL 1.2 Mobile"
	SuiteSandra            = "SiSoftware Sandra 2014"
	SuiteSonyVegas         = "Sony Vegas Pro 2013"
)
