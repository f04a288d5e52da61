// Command gtpin is the standalone profiler: it runs one of the 25
// benchmark applications under GT-Pin instrumentation and prints the
// requested profile reports — the tool-style usage from Section III of
// the paper.
//
// Usage:
//
//	gtpin -app cb-throughput-juliaset [-scale small] [-tools basic|mem|latency|all]
//	      [-per-kernel] [-per-invocation N] [-record file.rec] [-timeout D]
//	gtpin -replay file.rec [-tools ...]    # profile a saved CoFluent recording
//
// Reports: whole-program dynamic counts, opcode and SIMD mixes, memory
// bytes, API-call breakdown; optionally per-kernel summaries, the first N
// per-invocation records, memory-trace statistics, and per-site memory
// latencies.
package main

import (
	"flag"
	"fmt"
	"os"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/export"
	"gtpin/internal/gtpin"
	"gtpin/internal/harness"
	"gtpin/internal/isa"
	"gtpin/internal/profile"
	"gtpin/internal/report"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

var (
	appFlag    = flag.String("app", "", "benchmark to profile (required; see -list)")
	listFlag   = flag.Bool("list", false, "list available benchmarks")
	toolsFlag  = flag.String("tools", "basic", "instrumentation tools: basic, mem, latency, or all")
	perKernel  = flag.Bool("per-kernel", false, "print per-kernel summaries")
	perInv     = flag.Int("per-invocation", 0, "print the first N per-invocation records")
	jsonOut    = flag.String("json", "", "write the whole-program profile summary as JSON to this file")
	hotBlocks  = flag.Int("hot-blocks", 0, "print the N most executed basic blocks")
	recordPath = flag.String("record", "", "save a CoFluent recording of the run to this file")
	replayPath = flag.String("replay", "", "profile a saved recording instead of running a benchmark")
	noCache    = flag.Bool("no-cache", false, "disable the rewrite cache: instrument every binary from scratch")
)

func main() {
	harness.Main(harness.Config{Name: "gtpin", Scale: "small"}, run)
}

func run(h *harness.Session) error {
	if *listFlag {
		for _, s := range workloads.All() {
			fmt.Printf("%-28s %s\n", s.Name, s.Suite)
		}
		return nil
	}
	if *appFlag == "" && *replayPath == "" {
		return fmt.Errorf("-app or -replay is required (use -list to see benchmarks)")
	}
	sc := h.Scale
	if *noCache {
		gtpin.SetDefaultRewriteCache(nil)
	}
	var opts gtpin.Options
	switch *toolsFlag {
	case "basic":
	case "mem":
		opts.MemTrace = true
	case "latency":
		opts.Latency = true
	case "all":
		opts.MemTrace = true
		opts.Latency = true
	default:
		return fmt.Errorf("unknown tools %q", *toolsFlag)
	}

	// The whole profiling run races the session context: at the -timeout
	// deadline a wedged run is abandoned (the goroutine cannot be killed,
	// but the process exits) and classified as a unit-timeout fault, the
	// same taxonomy kind the sweep harnesses report for hung units.
	work := func() error {
		dev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			return err
		}
		var (
			g    *gtpin.GTPin
			tr   *cofluent.Tracer
			name string
		)
		if *replayPath != "" {
			rec, err := cofluent.LoadFile(*replayPath)
			if err != nil {
				return err
			}
			name = rec.App
			tr, err = rec.Replay(dev, func(rctx *cl.Context) error {
				var aerr error
				g, aerr = gtpin.Attach(rctx, opts)
				return aerr
			})
			if err != nil {
				return err
			}
		} else {
			spec, err := workloads.ByName(*appFlag)
			if err != nil {
				return err
			}
			name = spec.Name
			app, err := spec.Build(sc)
			if err != nil {
				return err
			}
			ctx := cl.NewContext(dev)
			g, err = gtpin.Attach(ctx, opts)
			if err != nil {
				return err
			}
			tr = cofluent.Attach(ctx)
			if err := app.Run(ctx); err != nil {
				return err
			}
			if *recordPath != "" {
				rec, err := cofluent.Record(spec.Name, tr, app.Programs)
				if err != nil {
					return err
				}
				if err := rec.SaveFile(*recordPath); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "recording saved to %s\n", *recordPath)
			}
		}

		scaleName := sc.Name
		if *replayPath != "" {
			scaleName = "recorded"
		}
		recs := g.Records()
		report.Section(os.Stdout, "GT-Pin profile: %s (scale=%s, device=%s)", name, scaleName, dev.Config().Name)

		// Whole-program summary.
		var instrs, bytesR, bytesW, blockExecs uint64
		var byCat [isa.NumCategories]uint64
		var byW [isa.NumWidths]uint64
		for _, r := range recs {
			instrs += r.Instrs
			bytesR += r.BytesRead
			bytesW += r.BytesWritten
			for c := range r.ByCategory {
				byCat[c] += r.ByCategory[c]
			}
			for w := range r.ByWidth {
				byW[w] += r.ByWidth[w]
			}
			for _, c := range r.BlockCounts {
				blockExecs += c
			}
		}
		kc, scc, oc := tr.Breakdown()
		sum := report.NewTable("Whole-program dynamic counts", "Metric", "Value")
		sum.Row("Kernel invocations", len(recs))
		sum.Row("Dynamic instructions", report.HumanCount(float64(instrs)))
		sum.Row("Basic block executions", report.HumanCount(float64(blockExecs)))
		sum.Row("Bytes read", report.HumanBytes(float64(bytesR)))
		sum.Row("Bytes written", report.HumanBytes(float64(bytesW)))
		sum.Row("API calls (kernel/sync/other)", fmt.Sprintf("%d / %d / %d", kc, scc, oc))
		sum.Write(os.Stdout)

		mix := report.NewTable("Instruction mix", "Category", "Count", "%")
		for c := 0; c < isa.NumCategories; c++ {
			mix.Row(isa.Category(c).String(), report.HumanCount(float64(byCat[c])),
				stats.Pct(float64(byCat[c]), float64(instrs)))
		}
		mix.Write(os.Stdout)

		simd := report.NewTable("SIMD widths", "Width", "Count", "%")
		for i := len(isa.Widths) - 1; i >= 0; i-- {
			simd.Row(fmt.Sprintf("W%d", isa.Widths[i]), report.HumanCount(float64(byW[i])),
				stats.Pct(float64(byW[i]), float64(instrs)))
		}
		simd.Write(os.Stdout)

		if *perKernel {
			t := report.NewTable("Per-kernel summary",
				"Kernel", "Invocations", "Instructions", "BytesR", "BytesW", "Time(ms)", "Chan Util")
			for _, s := range g.KernelSummaries() {
				t.Row(s.Name, s.Invocations, report.HumanCount(float64(s.Instrs)),
					report.HumanBytes(float64(s.BytesRead)), report.HumanBytes(float64(s.BytesWritten)),
					s.TimeNs/1e6, s.ChannelUtilization)
			}
			t.Write(os.Stdout)
		}

		if *perInv > 0 {
			t := report.NewTable("Per-invocation records", "Seq", "Kernel", "GWS", "Instrs", "BytesR", "BytesW", "SyncEpoch")
			for i, r := range recs {
				if i >= *perInv {
					break
				}
				t.Row(r.Seq, r.Kernel, r.GWS, r.Instrs, r.BytesRead, r.BytesWritten, r.SyncEpoch)
			}
			t.Write(os.Stdout)
		}

		if *hotBlocks > 0 {
			t := report.NewTable("Hottest basic blocks", "Kernel", "Block", "Executions", "Instructions")
			for _, hb := range g.HottestBlocks(*hotBlocks) {
				t.Row(hb.Kernel, hb.Block, hb.Execs, report.HumanCount(float64(hb.Instrs)))
			}
			t.Write(os.Stdout)
			executed, static := g.BlockCoverage()
			fmt.Printf("Block coverage: %d of %d static blocks executed (%.1f%%)\n\n",
				executed, static, 100*float64(executed)/float64(static))
		}

		if *jsonOut != "" {
			p, err := profile.Build(name, g, tr.TimesNs())
			if err != nil {
				return err
			}
			if err := export.ProfileJSONFile(*jsonOut, p); err != nil {
				return err
			}
			fmt.Printf("profile summary written to %s\n", *jsonOut)
		}

		if opts.MemTrace {
			mt := g.MemTrace()
			reads, writes := 0, 0
			for _, a := range mt {
				if a.Kind.Reads() {
					reads++
				}
				if a.Kind.Writes() {
					writes++
				}
			}
			fmt.Printf("Memory trace: %d entries captured (%d read sites, %d write sites), %d dropped in the ring\n\n",
				len(mt), reads, writes, g.RingDrops())
		}

		if opts.Latency {
			var lat []float64
			for _, r := range recs {
				for _, l := range r.SiteLatency {
					if l > 0 {
						lat = append(lat, l)
					}
				}
			}
			fmt.Printf("Memory latency: %.1f cycles mean, %.1f median across %d site samples\n",
				stats.Mean(lat), stats.Median(lat), len(lat))
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- work() }()
	select {
	case err := <-done:
		return err
	case <-h.Ctx.Done():
		return fmt.Errorf("profiling run abandoned: %w", h.Err())
	}
}
