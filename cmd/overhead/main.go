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
// on the device itself.
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

func run(h *harness.Session) error {
	// The measurement phases run inline (they are the thing being
	// timed, so there is no supervised pool to thread a deadline
	// through); instead the deadline is checked at every phase
	// boundary, classified with the same taxonomy a pool abandonment
	// would use.
	checkDeadline := func(app, phase string) error {
		if err := h.Err(); err != nil {
			return fmt.Errorf("before %s of %s: %w", phase, app, err)
		}
		return nil
	}
	if *noCache {
		gtpin.SetDefaultRewriteCache(nil)
	}
	sc, fo := h.Scale, h.Faults
	specs := workloads.All()
	if *appsFlag > 0 && *appsFlag < len(specs) {
		specs = specs[:*appsFlag]
	}

	report.Section(os.Stdout, "Section III-C: profiling and simulation overheads (scale=%s)", sc.Name)
	t := report.NewTable("", "Application", "Native(ms)", "GT-Pin(ms)", "GT-Pin X", "Heavy X", "Instr X", "Detailed(ms)", "Detailed X", "vs GPU X")
	var pinX, heavyX, detX, gpuX []float64
	for _, spec := range specs {
		if err := checkDeadline(spec.Name, "native run"); err != nil {
			return err
		}
		app, err := spec.Build(sc)
		if err != nil {
			return err
		}

		// Native run (uninstrumented), recorded for replays.
		dev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			return err
		}
		if _, err := fo.Arm(dev, spec.Name, "native"); err != nil {
			return err
		}
		ctx := cl.NewContext(dev)
		fo.Apply(ctx)
		tr := cofluent.Attach(ctx)
		t0 := time.Now()
		if err := app.Run(ctx); err != nil {
			return err
		}
		nativeMs := ms(time.Since(t0))
		rec, err := cofluent.Record(spec.Name, tr, app.Programs)
		if err != nil {
			return err
		}
		nativeInstrs := deviceInstrs(tr)

		// GT-Pin instrumented replay.
		if err := checkDeadline(spec.Name, "instrumented replay"); err != nil {
			return err
		}
		idev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			return err
		}
		if _, err := fo.Arm(idev, spec.Name, "replay"); err != nil {
			return err
		}
		t1 := time.Now()
		var g *gtpin.GTPin
		itr, err := rec.Replay(idev, func(rctx *cl.Context) error {
			fo.Apply(rctx)
			var aerr error
			g, aerr = gtpin.Attach(rctx, gtpin.Options{})
			return aerr
		})
		if err != nil {
			return err
		}
		pinMs := ms(time.Since(t1))
		instrX := float64(deviceInstrs(itr)) / float64(nativeInstrs)
		_ = g

		// GT-Pin with heavyweight tools (memory tracing + latency
		// profiling) — the top of the paper's 2-10X overhead band.
		if err := checkDeadline(spec.Name, "heavyweight replay"); err != nil {
			return err
		}
		hdev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			return err
		}
		if _, err := fo.Arm(hdev, spec.Name, "heavy"); err != nil {
			return err
		}
		t1h := time.Now()
		if _, err := rec.Replay(hdev, func(rctx *cl.Context) error {
			fo.Apply(rctx)
			_, aerr := gtpin.Attach(rctx, gtpin.Options{MemTrace: true, Latency: true})
			return aerr
		}); err != nil {
			return err
		}
		pinHeavyMs := ms(time.Since(t1h))

		detMs := 0.0
		if *detailedFlag {
			if err := checkDeadline(spec.Name, "detailed simulation"); err != nil {
				return err
			}
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := sim.Run(rec, []detsim.Range{{From: 0, To: len(tr.Timings())}}); err != nil {
				return err
			}
			detMs = ms(time.Since(t2))
		}

		px := pinMs / nativeMs
		hx := pinHeavyMs / nativeMs
		pinX = append(pinX, px)
		heavyX = append(heavyX, hx)
		row := []any{spec.Name, nativeMs, pinMs, px, hx, instrX}
		if *detailedFlag {
			dx := detMs / nativeMs
			detX = append(detX, dx)
			// The ratio the paper's motivation is about: host seconds of
			// detailed simulation per second of (modelled) GPU execution.
			gpuMs := tr.TotalKernelTimeNs() / 1e6
			gx := detMs / gpuMs
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
		fmt.Printf("Detailed simulation: %.0fX mean over the fast functional path, and %.0fX host time per modelled-GPU second "+
			"(paper: up to 2,000,000X over native hardware; the fast-path ratio compresses because our \"native\" execution is itself an interpreter on the same CPU).",
			stats.Mean(detX), stats.Mean(gpuX))
	}
	fmt.Println()
	return nil
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
