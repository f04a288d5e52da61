// Command validate regenerates the paper's Section V-E study (Figure 8):
// whether subsets selected from one profiled execution predict whole-
// program performance across repeated trials, across GPU frequencies
// (1150 MHz selections vs 1000/850/700/550/350 MHz executions), and
// across architecture generations (Ivy Bridge HD 4000 selections vs a
// Haswell HD 4600 execution).
//
// Selections are made once per application (its error-minimizing
// interval/feature configuration, as in Figure 6) from a CoFluent
// recording of trial 1; every validation replays that recording so the
// kernel calls in the selected intervals are present and findable.
//
// Usage:
//
//	validate [-scale full|small|tiny] [-part trials|freq|arch|all] [-trials N]
//	         [-fault-rate R] [-fault-seed S] [-watchdog N] [-timeout D] [-workers N]
//	         [-dialect gen|genx] [-translate gen|genx]
//
// The chaos flags mirror cmd/characterize: -fault-rate enables
// deterministic fault injection (seeded by -fault-seed) during the
// profiling runs, and -watchdog bounds each enqueue's instruction
// budget — exercising whether selections survive a fault-absorbing
// profile run.
package main

import (
	"flag"
	"fmt"
	"os"

	"gtpin/internal/device"
	"gtpin/internal/harness"
	"gtpin/internal/par"
	"gtpin/internal/report"
	"gtpin/internal/selection"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

var freqsMHz = []int{1000, 850, 700, 550, 350}

var (
	partFlag = flag.String("part", "all", "which validation: trials, freq, arch, or all")
	nTrials  = flag.Int("trials", 9, "number of additional trials (paper: trials 2-10)")
)

func main() {
	harness.Main(harness.Config{Name: "validate", Scale: "full", Faults: true, Workers: true, Dialect: true}, run)
}

func run(h *harness.Session) error {
	opts := selection.Options{ApproxTarget: workloads.ApproxTarget(h.Scale), Seed: 42}
	base := device.IvyBridgeHD4000()

	type appState struct {
		spec *workloads.Spec
		res  *workloads.Result
		best *selection.Evaluation
	}
	specs := workloads.All()
	apps := make([]appState, len(specs))
	// Profiling runs on the supervised pool (not a bare par loop) so a
	// -timeout deadline abandons hung units with a typed unit-timeout
	// fault instead of wedging the whole validation.
	outs, err := h.Sweep(h.Units(specs, base), false, harness.Progress)
	if err != nil {
		return err
	}
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("profile %s: %w", specs[i].Name, o.Err)
		}
		evals, err := selection.EvaluateAll(o.Result.Profile, opts)
		if err != nil {
			return err
		}
		apps[i] = appState{spec: specs[i], res: o.Result, best: selection.MinError(evals)}
	}

	crossErr := func(a appState, cfg device.Config, seed int64) (float64, error) {
		times, err := workloads.TimedReplay(a.res.Recording, cfg, seed)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", a.spec.Name, err)
		}
		e, err := selection.CrossError(a.best, a.res.Profile, times)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", a.spec.Name, err)
		}
		return e, nil
	}

	if show(*partFlag, "trials") {
		report.Section(os.Stdout, "Figure 8 (top): error using trial-1 selections on trials 2-%d", *nTrials+1)
		t := report.NewTable("", "Application", "Config", "Mean Error%", "Max Error%")
		perApp := make([][]float64, len(apps))
		if err := par.ForEachN(h.Ctx, len(apps), h.Workers, func(i int) error {
			for trial := 2; trial <= *nTrials+1; trial++ {
				e, err := crossErr(apps[i], base, int64(trial))
				if err != nil {
					return err
				}
				perApp[i] = append(perApp[i], e)
			}
			fmt.Fprintf(os.Stderr, "trials done for %-28s\n", apps[i].spec.Name)
			return nil
		}); err != nil {
			return err
		}
		var all []float64
		under3, total := 0, 0
		for i, a := range apps {
			for _, e := range perApp[i] {
				total++
				if e < 3 {
					under3++
				}
			}
			all = append(all, perApp[i]...)
			t.Row(a.spec.Name, a.best.Config.String(), stats.Mean(perApp[i]), stats.Max(perApp[i]))
		}
		t.Write(os.Stdout)
		fmt.Printf("Cross-trial: mean %.2f%%, max %.2f%%, %d/%d runs below 3%% (paper: most below 3%%, many below 1%%)\n\n",
			stats.Mean(all), stats.Max(all), under3, total)
	}

	if show(*partFlag, "freq") {
		report.Section(os.Stdout, "Figure 8 (middle): error using 1150MHz selections at lower frequencies")
		headers := []string{"Application"}
		for _, f := range freqsMHz {
			headers = append(headers, fmt.Sprintf("%dMHz", f))
		}
		t := report.NewTable("", headers...)
		perApp := make([][]float64, len(apps))
		if err := par.ForEachN(h.Ctx, len(apps), h.Workers, func(i int) error {
			for _, f := range freqsMHz {
				e, err := crossErr(apps[i], base.WithFrequency(f), 1)
				if err != nil {
					return err
				}
				perApp[i] = append(perApp[i], e)
			}
			fmt.Fprintf(os.Stderr, "frequencies done for %-28s\n", apps[i].spec.Name)
			return nil
		}); err != nil {
			return err
		}
		var all []float64
		under3, total := 0, 0
		for i, a := range apps {
			row := []any{a.spec.Name}
			for _, e := range perApp[i] {
				row = append(row, e)
				all = append(all, e)
				total++
				if e < 3 {
					under3++
				}
			}
			t.Row(row...)
		}
		t.Write(os.Stdout)
		fmt.Printf("Cross-frequency: mean %.2f%%, max %.2f%%, %d/%d below 3%% (paper: most below 3%%)\n\n",
			stats.Mean(all), stats.Max(all), under3, total)
	}

	if show(*partFlag, "arch") {
		// The paper establishes the two GPUs genuinely differ by
		// comparing LuxMark scores (HD4000: 269, HD4600: 351).
		ivb, err := workloads.LuxMarkScore(h.Unit(nil, device.IvyBridgeHD4000()))
		if err != nil {
			return err
		}
		hswScore, err := workloads.LuxMarkScore(h.Unit(nil, device.HaswellHD4600()))
		if err != nil {
			return err
		}
		fmt.Printf("\nLuxMark-style scores: HD4000 %.0f, HD4600 %.0f (%.2fx; paper: 269 vs 351, 1.30x)\n",
			ivb, hswScore, hswScore/ivb)

		report.Section(os.Stdout, "Figure 8 (bottom): error using Ivy Bridge selections on Haswell (HD4600)")
		t := report.NewTable("", "Application", "Config", "Error%")
		hsw := device.HaswellHD4600()
		errsArch := make([]float64, len(apps))
		if err := par.ForEachN(h.Ctx, len(apps), h.Workers, func(i int) error {
			e, err := crossErr(apps[i], hsw, 1)
			if err != nil {
				return err
			}
			errsArch[i] = e
			return nil
		}); err != nil {
			return err
		}
		var all []float64
		under3 := 0
		for i, a := range apps {
			e := errsArch[i]
			all = append(all, e)
			if e < 3 {
				under3++
			}
			t.Row(a.spec.Name, a.best.Config.String(), e)
		}
		t.Write(os.Stdout)
		fmt.Printf("Cross-architecture: mean %.2f%%, max %.2f%%, %d/%d below 3%% (paper: most below 3%%, worst gaussian-image ~11%%)\n",
			stats.Mean(all), stats.Max(all), under3, len(apps))
	}
	return nil
}

func show(partFlag, name string) bool { return partFlag == "all" || partFlag == name }
