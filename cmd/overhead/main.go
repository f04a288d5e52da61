// Command overhead regenerates the paper's Section III-C measurements:
// the cost of GT-Pin profiling relative to native execution (the paper
// observes 2-10X), contrasted with the cost of detailed
// microarchitectural simulation (up to ~2,000,000X on real systems; our
// detailed simulator demonstrates the same orders-of-magnitude gap on a
// common substrate).
//
// Three quantities are reported per application:
//
//	native    — wall-clock host time of the plain (uninstrumented) run
//	gt-pin    — wall-clock host time of the GT-Pin instrumented replay
//	detailed  — wall-clock host time of full detailed simulation
//
// plus the instrumented/native instruction expansion the rewriter causes
// on the device itself. Every phase of an application runs once untimed
// and then five timed times, and each reported time is the median of
// the five. The untimed run fills the process-wide caches (predecode
// streams, GT-Pin rewrites, detsim's compiled programs), so the native
// run, which goes first, no longer pays for them alone.
//
// Usage:
//
//	overhead [-scale small|tiny|full] [-apps N] [-detailed] [-timeout D]
//	         [-fault-rate R] [-fault-seed S] [-watchdog N]
//
// The chaos flags mirror cmd/characterize: -fault-rate enables
// deterministic fault injection (seeded by -fault-seed) in the native
// run and both instrumented replays, and -watchdog bounds each
// enqueue's instruction budget — measuring overheads while the
// resilience layer is absorbing faults.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/gtpin"
	"gtpin/internal/harness"
	"gtpin/internal/report"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

var (
	appsFlag     = flag.Int("apps", 6, "number of applications to measure (0 = all 25)")
	detailedFlag = flag.Bool("detailed", true, "also run full detailed simulation")
	noCache      = flag.Bool("no-cache", false, "disable the rewrite cache so every phase pays full instrumentation cost")
)

func main() {
	harness.Main(harness.Config{Name: "overhead", Scale: "small", Faults: true}, run)
}

// reps is how many timed runs each phase's reported time is the median
// of.
const reps = 5

func run(h *harness.Session) error {
	if *noCache {
		gtpin.SetDefaultRewriteCache(nil)
	}
	specs := workloads.All()
	if *appsFlag > 0 && *appsFlag < len(specs) {
		specs = specs[:*appsFlag]
	}

	report.Section(os.Stdout, "Section III-C: profiling and simulation overheads (scale=%s)", h.Scale.Name)
	t := report.NewTable("", "Application", "Native(ms)", "GT-Pin(ms)", "GT-Pin X", "Heavy X", "Instr X", "Detailed(ms)", "Detailed X", "vs GPU X")
	var pinX, heavyX, detX, gpuX []float64
	for _, spec := range specs {
		var times [numPhases][]float64
		var r round
		for i := 0; i <= reps; i++ {
			var err error
			if r, err = measure(h, spec); err != nil {
				return err
			}
			if i == 0 {
				continue // the untimed run
			}
			for p, d := range r.times {
				times[p] = append(times[p], ms(d))
			}
		}
		nativeMs := stats.Median(times[phaseNative])
		pinMs := stats.Median(times[phasePin])
		px := pinMs / nativeMs
		hx := stats.Median(times[phaseHeavy]) / nativeMs
		pinX = append(pinX, px)
		heavyX = append(heavyX, hx)
		row := []any{spec.Name, nativeMs, pinMs, px, hx, r.instrX}
		if *detailedFlag {
			detMs := stats.Median(times[phaseDetailed])
			dx := detMs / nativeMs
			detX = append(detX, dx)
			// The ratio the paper's motivation is about: host seconds of
			// detailed simulation per second of (modelled) GPU execution.
			gx := detMs / r.gpuMs
			gpuX = append(gpuX, gx)
			row = append(row, detMs, dx, gx)
		} else {
			row = append(row, "-", "-", "-")
		}
		t.Row(row...)
	}
	t.Write(os.Stdout)
	fmt.Printf("GT-Pin overhead: %.1fX mean with basic tools, %.1fX with memory tracing + latency (paper: 2-10X). ",
		stats.Mean(pinX), stats.Mean(heavyX))
	if len(detX) > 0 {
		fmt.Printf("Detailed simulation: %.1fX mean over the fast functional path, and %.1fX host time per modelled-GPU second "+
			"(paper: up to 2,000,000X over native hardware; the fast-path ratio compresses because our \"native\" execution is itself an interpreter on the same CPU).",
			stats.Mean(detX), stats.Mean(gpuX))
	}
	fmt.Println()
	return nil
}

// The measured phases, in the order measure runs them.
const (
	phaseNative = iota
	phasePin
	phaseHeavy
	phaseDetailed
	numPhases
)

// round is one run of an application's phases: each phase's wall time,
// the instrumented/native device instruction ratio, and the modelled
// GPU time of the native run in ms.
type round struct {
	times  [numPhases]time.Duration
	instrX float64
	gpuMs  float64
}

// measure runs every phase of one application once. The phases run
// inline (they are the thing being timed, so there is no supervised
// pool to thread a deadline through); instead the deadline is checked
// at every phase boundary, classified with the same taxonomy a pool
// abandonment would use.
func measure(h *harness.Session, spec *workloads.Spec) (round, error) {
	var r round
	fo := h.Faults
	checkDeadline := func(phase string) error {
		if err := h.Err(); err != nil {
			return fmt.Errorf("before %s of %s: %w", phase, spec.Name, err)
		}
		return nil
	}
	if err := checkDeadline("native run"); err != nil {
		return r, err
	}
	app, err := spec.Build(h.Scale)
	if err != nil {
		return r, err
	}

	// Native run (uninstrumented), recorded for replays.
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		return r, err
	}
	if _, err := fo.Arm(dev, spec.Name, "native"); err != nil {
		return r, err
	}
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	t0 := time.Now()
	if err := app.Run(ctx); err != nil {
		return r, err
	}
	r.times[phaseNative] = time.Since(t0)
	rec, err := cofluent.Record(spec.Name, tr, app.Programs)
	if err != nil {
		return r, err
	}
	r.gpuMs = tr.TotalKernelTimeNs() / 1e6

	// replay times one GT-Pin instrumented replay of the recording.
	replay := func(phase string, opts gtpin.Options) (time.Duration, *cofluent.Tracer, error) {
		if err := checkDeadline(phase); err != nil {
			return 0, nil, err
		}
		idev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			return 0, nil, err
		}
		if _, err := fo.Arm(idev, spec.Name, phase); err != nil {
			return 0, nil, err
		}
		var g *gtpin.GTPin
		t1 := time.Now()
		itr, err := rec.Replay(idev, func(rctx *cl.Context) error {
			var aerr error
			g, aerr = gtpin.Attach(rctx, opts)
			return aerr
		})
		d := time.Since(t1)
		if err != nil {
			return 0, nil, err
		}
		g.Detach()
		return d, itr, nil
	}
	d, itr, err := replay("replay", gtpin.Options{})
	if err != nil {
		return r, err
	}
	r.times[phasePin] = d
	r.instrX = float64(deviceInstrs(itr)) / float64(deviceInstrs(tr))
	// Heavyweight tools (memory tracing + latency profiling): the top of
	// the paper's 2-10X overhead band.
	if r.times[phaseHeavy], _, err = replay("heavy", gtpin.Options{MemTrace: true, Latency: true}); err != nil {
		return r, err
	}

	if *detailedFlag {
		if err := checkDeadline("detailed simulation"); err != nil {
			return r, err
		}
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			return r, err
		}
		t2 := time.Now()
		if _, err := sim.Run(rec, []detsim.Range{{From: 0, To: len(tr.Timings())}}); err != nil {
			return r, err
		}
		r.times[phaseDetailed] = time.Since(t2)
	}
	return r, nil
}

// deviceInstrs sums the dynamic instructions the device executed across
// all invocations, as observed at kernel completion.
func deviceInstrs(tr *cofluent.Tracer) uint64 {
	var n uint64
	for _, kt := range tr.Timings() {
		n += kt.Instrs
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
