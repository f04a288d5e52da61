// Command characterize regenerates the paper's characterization study
// (Section IV): Table I (the benchmark roster), Figure 3 (API call
// breakdown, program structures, dynamic work), and Figure 4
// (instruction mixes, SIMD widths, memory activity) for the 25 OpenCL
// applications, profiled with CoFluent (host side) and GT-Pin (device
// side).
//
// Usage:
//
//	characterize [-scale full|small|tiny] [-app name] [-fig table1|3a|3b|3c|4a|4b|4c|all]
//	             [-fault-rate R] [-fault-seed S] [-watchdog N]
//	             [-state-dir DIR] [-resume] [-timeout D] [-workers N] [-fleet N]
//	             [-dialect gen|genx] [-translate gen|genx]
//
// The sweep runs as a supervised worker pool. With -state-dir each
// (app, device-config, fault-seed) unit is journaled in a crash-
// consistent WAL and its profile persisted atomically, so a run killed
// partway through — crash, OOM, Ctrl-C — can be continued with -resume:
// journaled-complete units are skipped (their artifacts digest-verified)
// and in-flight ones re-executed, producing a report byte-identical to
// an uninterrupted run with the same seeds. See docs/checkpointing.md.
//
// A per-application failure does not abort the sweep: the failed
// application is reported in the run-status table with its error class,
// the figures are produced from the applications that completed, and the
// exit status is non-zero only when every application failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/harness"
	"gtpin/internal/isa"
	"gtpin/internal/profile"
	"gtpin/internal/report"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

var (
	appFlag = flag.String("app", "", "profile a single benchmark by name")
	figFlag = flag.String("fig", "all", "which output to produce: table1, 3a, 3b, 3c, 4a, 4b, 4c, or all")
)

func main() {
	harness.Main(harness.Config{Name: "characterize", Scale: "full",
		Faults: true, State: true, Workers: true, Fleet: true, Dialect: true}, run)
}

func run(h *harness.Session) error {
	specs := workloads.All()
	if *appFlag != "" {
		spec, err := workloads.ByName(*appFlag)
		if err != nil {
			return err
		}
		specs = []*workloads.Spec{spec}
	}

	if show(*figFlag, "table1") {
		printTableI(specs)
	}

	outs, perr := h.Sweep(h.Units(specs, device.IvyBridgeHD4000()), false, progressLine)
	if perr != nil {
		if !errors.Is(perr, context.Canceled) {
			return perr
		}
		fmt.Fprintln(os.Stderr, "characterize: interrupted; reporting completed applications")
	}

	type row struct {
		spec *workloads.Spec
		art  *workloads.Artifact
		prof *profile.Profile
	}
	var rows []row
	failed := 0
	for i, o := range outs {
		switch {
		case o.Err != nil:
			failed++
		case o.Artifact != nil:
			p, err := o.Artifact.Profile()
			if err != nil {
				return err
			}
			rows = append(rows, row{spec: specs[i], art: o.Artifact, prof: p})
		}
	}
	if failed > 0 || len(rows) < len(outs) || h.Faults != nil {
		report.Section(os.Stdout, "Run status")
		t := report.NewTable("", "Application", "Status", "Error Class", "Injected Faults")
		for i, o := range outs {
			switch {
			case o.Err != nil:
				class := faults.Kind(o.Err)
				if class == "" {
					class = faults.ClassOf(o.Err).String()
				}
				t.Row(specs[i].Name, "FAILED", class, "")
			case o.Artifact != nil:
				t.Row(specs[i].Name, "ok", "", o.Artifact.FaultStats.Total())
			default:
				t.Row(specs[i].Name, "not run", "", "")
			}
		}
		t.Write(os.Stdout)
	}
	if len(rows) == 0 {
		return fmt.Errorf("all %d applications failed", len(outs))
	}

	if show(*figFlag, "3a") {
		report.Section(os.Stdout, "Figure 3a: OpenCL API call breakdown (%%)")
		t := report.NewTable("", "Application", "Total Calls", "Kernel%", "Sync%", "Other%")
		var ks, ss []float64
		for _, r := range rows {
			k, s, o := r.art.BreakdownPct()
			t.Row(r.spec.Name, r.art.TotalCalls(), k, s, o)
			ks = append(ks, k)
			ss = append(ss, s)
		}
		t.Row("AVERAGE", "", stats.Mean(ks), stats.Mean(ss), 100-stats.Mean(ks)-stats.Mean(ss))
		t.Write(os.Stdout)
	}

	if show(*figFlag, "3b") {
		report.Section(os.Stdout, "Figure 3b: GPU program structures (static)")
		t := report.NewTable("", "Application", "Unique Kernels", "Unique Basic Blks")
		var uk, ub []float64
		for _, r := range rows {
			blocks := 0
			for _, ki := range r.art.Static {
				blocks += ki.NumBlocks
			}
			t.Row(r.spec.Name, len(r.art.Static), blocks)
			uk = append(uk, float64(len(r.art.Static)))
			ub = append(ub, float64(blocks))
		}
		t.Row("AVERAGE", stats.Mean(uk), stats.Mean(ub))
		t.Write(os.Stdout)
	}

	if show(*figFlag, "3c") {
		report.Section(os.Stdout, "Figure 3c: dynamic GPU work")
		t := report.NewTable("", "Application", "Kernel Count", "Basic Blk Count", "Instr. Count")
		var inv, bb, in []float64
		for _, r := range rows {
			agg := r.prof.Aggregate()
			t.Row(r.spec.Name, agg.KernelInvocations,
				report.HumanCount(float64(agg.BlockExecs)), report.HumanCount(float64(agg.Instrs)))
			inv = append(inv, float64(agg.KernelInvocations))
			bb = append(bb, float64(agg.BlockExecs))
			in = append(in, float64(agg.Instrs))
		}
		t.Row("AVERAGE", stats.Mean(inv), report.HumanCount(stats.Mean(bb)), report.HumanCount(stats.Mean(in)))
		t.Write(os.Stdout)
	}

	if show(*figFlag, "4a") {
		report.Section(os.Stdout, "Figure 4a: dynamic instruction mixes (%%)")
		t := report.NewTable("", "Application", "Moves", "Logic", "Control", "Computation", "Sends")
		sums := make([][]float64, isa.NumCategories)
		for _, r := range rows {
			agg := r.prof.Aggregate()
			total := float64(agg.Instrs)
			var pct [isa.NumCategories]float64
			for c := 0; c < isa.NumCategories; c++ {
				pct[c] = stats.Pct(float64(agg.ByCategory[c]), total)
				sums[c] = append(sums[c], pct[c])
			}
			t.Row(r.spec.Name, pct[isa.CatMove], pct[isa.CatLogic], pct[isa.CatControl],
				pct[isa.CatComputation], pct[isa.CatSend])
		}
		t.Row("AVERAGE", stats.Mean(sums[isa.CatMove]), stats.Mean(sums[isa.CatLogic]),
			stats.Mean(sums[isa.CatControl]), stats.Mean(sums[isa.CatComputation]), stats.Mean(sums[isa.CatSend]))
		t.Write(os.Stdout)
	}

	if show(*figFlag, "4b") {
		report.Section(os.Stdout, "Figure 4b: SIMD widths (%% of dynamic instructions)")
		t := report.NewTable("", "Application", "W16", "W8", "W4", "W2", "W1")
		sums := make([][]float64, isa.NumWidths)
		for _, r := range rows {
			agg := r.prof.Aggregate()
			total := float64(agg.Instrs)
			var pct [isa.NumWidths]float64
			for w := 0; w < isa.NumWidths; w++ {
				pct[w] = stats.Pct(float64(agg.ByWidth[w]), total)
				sums[w] = append(sums[w], pct[w])
			}
			t.Row(r.spec.Name, pct[4], pct[3], pct[2], pct[1], pct[0])
		}
		t.Row("AVERAGE", stats.Mean(sums[4]), stats.Mean(sums[3]), stats.Mean(sums[2]),
			stats.Mean(sums[1]), stats.Mean(sums[0]))
		t.Write(os.Stdout)
	}

	if show(*figFlag, "4c") {
		report.Section(os.Stdout, "Figure 4c: GPU memory activity")
		t := report.NewTable("", "Application", "Bytes Read", "Bytes Written", "W/R Ratio")
		var rd, wr []float64
		for _, r := range rows {
			agg := r.prof.Aggregate()
			ratio := 0.0
			if agg.BytesRead > 0 {
				ratio = float64(agg.BytesWritten) / float64(agg.BytesRead)
			}
			t.Row(r.spec.Name, report.HumanBytes(float64(agg.BytesRead)),
				report.HumanBytes(float64(agg.BytesWritten)), ratio)
			rd = append(rd, float64(agg.BytesRead))
			wr = append(wr, float64(agg.BytesWritten))
		}
		t.Row("AVERAGE", report.HumanBytes(stats.Mean(rd)), report.HumanBytes(stats.Mean(wr)), "")
		t.Write(os.Stdout)
	}
	return nil
}

// progressLine reports one settled unit on stderr.
func progressLine(o workloads.Outcome) {
	name := o.Unit.Spec.Name
	switch {
	case o.Err != nil:
		fmt.Fprintf(os.Stderr, "FAILED   %-28s %v\n", name, o.Err)
	case o.Resumed:
		fmt.Fprintf(os.Stderr, "resumed  %-28s (journaled complete, artifact verified)\n", name)
	default:
		var instrs uint64
		for i := range o.Artifact.Invocations {
			instrs += o.Artifact.Invocations[i].Instrs
		}
		fmt.Fprintf(os.Stderr, "profiled %-28s %s instrs, %d invocations\n",
			name, report.HumanCount(float64(instrs)), len(o.Artifact.Invocations))
	}
}

func printTableI(specs []*workloads.Spec) {
	report.Section(os.Stdout, "Table I: benchmarks used in this study")
	t := report.NewTable("", "Source", "Application")
	for _, s := range specs {
		t.Row(s.Suite, s.Name)
	}
	t.Write(os.Stdout)
}

func show(figFlag, name string) bool { return figFlag == "all" || figFlag == name }
