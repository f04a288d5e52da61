// Command subsets regenerates the paper's simulation subset selection
// study (Section V): Table II (the interval space), Table III (the
// feature space), Figure 5 (error and selection size for all 30
// interval/feature combinations on three sample applications), Figure 6
// (per-application error-minimizing configurations), Figure 7 (joint
// error/selection-size optimization under error thresholds), and the
// Section V-B best-average universal configuration.
//
// Usage:
//
//	subsets [-scale full|small|tiny] [-fig table2|table3|5|6|7|bestavg|all]
//	        [-csv DIR] [-state-dir DIR] [-resume] [-timeout D] [-workers N] [-fleet N]
//	        [-dialect gen|genx] [-translate gen|genx]
//	        [-simulate [-sim-mode snippets|serial] [-sim-apps A,B] [-sim-warmup N]]
//
// With -state-dir the profiling sweep (the expensive step) is journaled
// and each profile persisted atomically, so a killed run continued with
// -resume skips journaled-complete applications and produces the same
// tables. CSV exports are written atomically (temp file + rename) in
// all modes. See docs/checkpointing.md.
//
// -simulate refuses -translate up front (faults.ErrBadConfig): the
// detailed simulator compiles the recorded IR and has no
// binary-translation stage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gtpin/internal/device"
	"gtpin/internal/export"
	"gtpin/internal/features"
	"gtpin/internal/harness"
	"gtpin/internal/intervals"
	"gtpin/internal/par"
	"gtpin/internal/profile"
	"gtpin/internal/report"
	"gtpin/internal/selection"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

// fig5Apps are the three sample applications shown in Figure 5.
var fig5Apps = []string{"cb-physics-ocean-surf", "sandra-crypt-aes128", "sonyvegas-proj-r3"}

var (
	figFlag   = flag.String("fig", "all", "output: table2, table3, 5, 6, 7, bestavg, or all")
	csvDir    = flag.String("csv", "", "directory to write per-app evaluation CSVs and selection work lists (atomic writes)")
	simFlag   = flag.Bool("simulate", false, "after selection, simulate each application's error-minimizing subset in detail")
	simMode   = flag.String("sim-mode", "snippets", "subset simulation mode: snippets (parallel interval replay) or serial (per-interval fast-forwarding); stdout is byte-identical across modes")
	simApps   = flag.String("sim-apps", "", "comma-separated applications to simulate (default: the Figure 5 sample apps)")
	simWarmup = flag.Int("sim-warmup", 2, "cache-warming invocations preceding each simulated interval")
)

func main() {
	harness.Main(harness.Config{Name: "subsets", Scale: "full",
		State: true, Workers: true, Fleet: true, Dialect: true}, run)
}

func run(h *harness.Session) error {
	cfg := device.IvyBridgeHD4000()
	sim := simOptions{
		Apps:     parseApps(*simApps),
		Mode:     *simMode,
		Warmup:   *simWarmup,
		Workers:  h.Workers,
		Unit:     h.Unit(nil, cfg),
		StateDir: h.StateDir,
	}
	if *simFlag {
		if err := sim.validate(); err != nil {
			return err
		}
	}
	opts := selection.Options{ApproxTarget: workloads.ApproxTarget(h.Scale), Seed: 42}

	if show(*figFlag, "table3") {
		printTableIII()
	}

	// Profile every application once; all interval/feature exploration
	// reuses the same profiles (the paper's "no additional overhead"
	// observation in Section V-C). The sweep runs as a supervised pool:
	// with -state-dir each profile is journaled and persisted, so a
	// resumed run rebuilds the identical tables from the artifacts.
	specs := workloads.All()
	outs, err := h.Sweep(h.Units(specs, cfg), false, harness.Progress)
	if err != nil {
		return err
	}
	profiles := make(map[string]*profile.Profile)
	var order []string
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, o.Err)
		}
		p, err := o.Artifact.Profile()
		if err != nil {
			return err
		}
		profiles[specs[i].Name] = p
		order = append(order, specs[i].Name)
	}

	if show(*figFlag, "table2") {
		if err := printTableII(order, profiles, opts); err != nil {
			return err
		}
	}

	// The 30-combination evaluation per application.
	evals := make(map[string][]*selection.Evaluation)
	needEvals := show(*figFlag, "5") || show(*figFlag, "6") || show(*figFlag, "7") || show(*figFlag, "bestavg") || *simFlag
	if needEvals {
		all := make([][]*selection.Evaluation, len(order))
		if err := par.ForEachN(h.Ctx, len(order), h.Workers, func(i int) error {
			evs, err := selection.EvaluateAll(profiles[order[i]], opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "evaluated 30 configurations for %-28s\n", order[i])
			all[i] = evs
			return nil
		}); err != nil {
			return err
		}
		for i, name := range order {
			evals[name] = all[i]
		}
	}

	if *csvDir != "" && needEvals {
		if err := writeCSVs(*csvDir, order, evals); err != nil {
			return err
		}
	}

	if show(*figFlag, "5") {
		printFig5(evals)
	}
	if show(*figFlag, "bestavg") {
		printBestAvg(order, evals)
	}
	if show(*figFlag, "6") {
		printFig6(order, evals)
	}
	if show(*figFlag, "7") {
		printFig7(order, evals)
	}
	if *simFlag {
		if err := runSimulate(h.Ctx, os.Stdout, evals, sim); err != nil {
			return err
		}
	}
	return nil
}

func printTableII(order []string, profiles map[string]*profile.Profile, opts selection.Options) error {
	report.Section(os.Stdout, "Table II: the program interval space (intervals per program)")
	t := report.NewTable("", "Interval Bound", "Relative Size", "Min", "Avg", "Max")
	sizes := map[intervals.Scheme]string{
		intervals.Sync: "large", intervals.Approx: "medium", intervals.Kernel: "small",
	}
	for _, s := range intervals.Schemes {
		var counts []float64
		for _, name := range order {
			ivs, err := intervals.Divide(profiles[name], s, opts.ApproxTarget)
			if err != nil {
				return err
			}
			counts = append(counts, float64(len(ivs)))
		}
		t.Row(s.String(), sizes[s], stats.Min(counts), stats.Mean(counts), stats.Max(counts))
	}
	t.Write(os.Stdout)
	return nil
}

func printTableIII() {
	report.Section(os.Stdout, "Table III: the program feature space")
	t := report.NewTable("", "Identifier", "Feature Key", "Block-based", "Memory-augmented")
	desc := map[features.Kind]string{
		features.KN:        "Kernel",
		features.KNArgs:    "Kernel, Argument Values",
		features.KNGWS:     "Kernel, Global Work Size",
		features.KNArgsGWS: "Kernel, Argument Values, Global Work Size",
		features.KNRW:      "Kernel, # Bytes Read, # Bytes Written",
		features.BB:        "Basic Block",
		features.BBR:       "Basic Block, # Bytes Read",
		features.BBW:       "Basic Block, # Bytes Written",
		features.BBRW:      "Basic Block, # Bytes Read, # Bytes Written",
		features.BBRpW:     "Basic Block, # Bytes Read + # Bytes Written",
	}
	for _, k := range features.Kinds {
		t.Row(k.String(), desc[k], k.IsBlockBased(), k.UsesMemory())
	}
	t.Write(os.Stdout)
}

func printFig5(evals map[string][]*selection.Evaluation) {
	report.Section(os.Stdout, "Figure 5: feature and division space exploration (3 sample apps)")
	for _, app := range fig5Apps {
		evs, ok := evals[app]
		if !ok {
			continue
		}
		t := report.NewTable(app, "Config", "Intervals", "Error%", "Selection% of Instrs", "Speedup")
		for _, ev := range evs {
			t.Row(ev.Config.String(), ev.NumIntervals, ev.ErrorPct, 100*ev.SelectedFrac, ev.Speedup)
		}
		t.Write(os.Stdout)
	}
}

func printBestAvg(order []string, evals map[string][]*selection.Evaluation) {
	report.Section(os.Stdout, "Section V-B: best universal interval/feature combination")
	configs := selection.AllConfigs()
	t := report.NewTable("", "Config", "Avg Error%", "Worst Error%", "Avg Selection%", "Worst Selection%", "Avg Speedup")
	type row struct {
		cfg              selection.Config
		avgErr, worstErr float64
		avgSel, worstSel float64
		avgSpd           float64
	}
	var best *row
	for ci, cfg := range configs {
		var errs, sels, spds []float64
		for _, name := range order {
			ev := evals[name][ci]
			errs = append(errs, ev.ErrorPct)
			sels = append(sels, 100*ev.SelectedFrac)
			spds = append(spds, ev.Speedup)
		}
		r := row{cfg: cfg, avgErr: stats.Mean(errs), worstErr: stats.Max(errs),
			avgSel: stats.Mean(sels), worstSel: stats.Max(sels), avgSpd: stats.GeoMean(spds)}
		t.Row(cfg.String(), r.avgErr, r.worstErr, r.avgSel, r.worstSel, r.avgSpd)
		if best == nil || r.avgErr < best.avgErr {
			b := r
			best = &b
		}
	}
	t.Write(os.Stdout)
	fmt.Printf("Best universal config: %s (avg error %.2f%%, avg selection %.2f%% of instructions, worst error %.2f%%, worst selection %.2f%%)\n",
		best.cfg, best.avgErr, best.avgSel, best.worstErr, best.worstSel)
	fmt.Printf("Paper: BB + synchronization intervals, 1.5%% avg error, 1.9%% selection (53X), worst 8.8%% error / 24.0%% selection\n")
}

func printFig6(order []string, evals map[string][]*selection.Evaluation) {
	report.Section(os.Stdout, "Figure 6: per-application error-minimizing configuration")
	t := report.NewTable("", "Application", "Best Config", "Intervals", "Error%", "Speedup")
	var errs, spds []float64
	schemeCount := map[intervals.Scheme]int{}
	bbCount, memCount := 0, 0
	minSpd, maxSpd := 0.0, 0.0
	for _, name := range order {
		ev := selection.MinError(evals[name])
		t.Row(name, ev.Config.String(), ev.NumIntervals, ev.ErrorPct, ev.Speedup)
		errs = append(errs, ev.ErrorPct)
		spds = append(spds, ev.Speedup)
		schemeCount[ev.Config.Scheme]++
		if ev.Config.Feature.IsBlockBased() {
			bbCount++
		}
		if ev.Config.Feature.UsesMemory() {
			memCount++
		}
		if minSpd == 0 || ev.Speedup < minSpd {
			minSpd = ev.Speedup
		}
		if ev.Speedup > maxSpd {
			maxSpd = ev.Speedup
		}
	}
	t.Write(os.Stdout)
	fmt.Printf("Average error %.2f%% (paper: 0.3%%), worst %.2f%% (paper: 2.1%%)\n", stats.Mean(errs), stats.Max(errs))
	fmt.Printf("Average speedup %.0fX (paper: 35X), range %.0fX-%.0fX (paper: 6X-6509X)\n",
		stats.Mean(spds), minSpd, maxSpd)
	fmt.Printf("Block-based features chosen by %d/25 (paper: 20/25); memory features by %d/25 (paper: 20/25)\n", bbCount, memCount)
	fmt.Printf("Interval choices: %d sync, %d approx-100M, %d single-kernel (paper: 11/11/3)\n",
		schemeCount[intervals.Sync], schemeCount[intervals.Approx], schemeCount[intervals.Kernel])
}

func printFig7(order []string, evals map[string][]*selection.Evaluation) {
	report.Section(os.Stdout, "Figure 7: co-optimization of simulation time and error")
	t := report.NewTable("", "Threshold", "Avg Error%", "Avg Speedup", "Geo Speedup")
	emit := func(label string, pick func([]*selection.Evaluation) *selection.Evaluation) {
		var errs, spds []float64
		for _, name := range order {
			ev := pick(evals[name])
			errs = append(errs, ev.ErrorPct)
			spds = append(spds, ev.Speedup)
		}
		t.Row(label, stats.Mean(errs), stats.Mean(spds), stats.GeoMean(spds))
	}
	emit("min-error", selection.MinError)
	thresholds := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, thr := range thresholds {
		thr := thr
		emit(fmt.Sprintf("%.1f%%", thr), func(evs []*selection.Evaluation) *selection.Evaluation {
			return selection.SmallestUnderThreshold(evs, thr)
		})
	}
	t.Write(os.Stdout)
	fmt.Println("Paper: speedups rise monotonically with the threshold; at 10% threshold, 3.0% avg error and 223X avg speedup.")
}

// writeCSVs exports every application's 30 evaluations plus the
// error-minimizing configuration's simulation work list. Writes are
// atomic: a crash mid-export never leaves a truncated CSV behind.
func writeCSVs(dir string, order []string, evals map[string][]*selection.Evaluation) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range order {
		if err := export.EvaluationsCSVFile(filepath.Join(dir, name+"_evaluations.csv"), evals[name]); err != nil {
			return err
		}
		best := selection.MinError(evals[name])
		if err := export.SelectionsCSVFile(filepath.Join(dir, name+"_selection.csv"), best); err != nil {
			return err
		}
	}
	return nil
}

func show(figFlag, name string) bool { return figFlag == "all" || figFlag == name }
