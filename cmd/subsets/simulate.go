package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gtpin/internal/detsim"
	"gtpin/internal/faults"
	"gtpin/internal/intervals"
	"gtpin/internal/par"
	"gtpin/internal/report"
	"gtpin/internal/runstate"
	"gtpin/internal/selection"
	"gtpin/internal/workloads"
)

// This file is the paper's step 6 made parallel: actually simulate the
// selected interval subset in detail. Two execution modes produce
// byte-identical stdout:
//
//   - serial: one fast-forwarding detsim.Run per selected interval —
//     every run replays the program from the start, so total cost grows
//     with where the intervals sit in the program.
//   - snippets: one functional capture pass extracts each interval (plus
//     warmup) as a portable snippet, then all intervals replay
//     concurrently on -workers private simulators, skipping every
//     fast-forwarded prefix.
//
// The mode and timings are narrated on stderr only, so `cmp` across
// modes and worker counts is the equivalence check (make snippets-smoke).

// simOptions configures the subset simulation step.
type simOptions struct {
	Apps     []string
	Mode     string // "snippets" or "serial"
	Warmup   int
	Workers  int
	Unit     workloads.Unit // the sweep's unit, minus its Spec
	StateDir string         // when set, sealed snippets persist under <dir>/snippets
}

// validate refuses, before any profiling, a simulation that would not
// simulate the profiled code: detsim compiles the recorded IR and has
// no binary-translation stage.
func (opt simOptions) validate() error {
	if opt.Unit.Translate != nil {
		return fmt.Errorf("-simulate cannot reproduce -translate %s: %w", *opt.Unit.Translate, faults.ErrBadConfig)
	}
	return nil
}

// runSimulate simulates each application's error-minimizing subset
// selection in detail and prints per-interval and aggregate results.
func runSimulate(ctx context.Context, w io.Writer, evals map[string][]*selection.Evaluation, opt simOptions) error {
	report.Section(w, "Subset simulation: detailed replay of the selected intervals")
	for _, app := range opt.Apps {
		evs, ok := evals[app]
		if !ok {
			return fmt.Errorf("simulate: no evaluations for %s", app)
		}
		if err := simulateApp(ctx, w, app, selection.MinError(evs), opt); err != nil {
			return err
		}
	}
	return nil
}

func simulateApp(ctx context.Context, w io.Writer, app string, best *selection.Evaluation, opt simOptions) error {
	spec, err := workloads.ByName(app)
	if err != nil {
		return err
	}
	selected := make([]int, len(best.Selections))
	for i, s := range best.Selections {
		selected[i] = s.Interval
	}
	windows, err := intervals.SelectedWindows(best.Intervals, selected, opt.Warmup)
	if err != nil {
		return fmt.Errorf("simulate %s: %w", app, err)
	}
	ranges := make([]detsim.Range, len(windows))
	for i, win := range windows {
		ranges[i] = detsim.Range{From: win.From, To: win.To, Warmup: win.Warmup}
	}

	u := opt.Unit
	u.Spec = spec
	rec, err := workloads.Record(u)
	if err != nil {
		return err
	}

	simCfg := detsim.DefaultConfig()
	simCfg.Device = u.Cfg

	start := time.Now()
	var reps []*detsim.Report
	switch opt.Mode {
	case "serial":
		reps = make([]*detsim.Report, len(ranges))
		for i, r := range ranges {
			sim, err := detsim.New(simCfg)
			if err != nil {
				return err
			}
			if reps[i], err = sim.Run(rec, []detsim.Range{r}); err != nil {
				return fmt.Errorf("simulate %s interval %d: %w", app, i, err)
			}
		}
	case "snippets":
		capSim, err := detsim.New(simCfg)
		if err != nil {
			return err
		}
		snips, err := capSim.Capture(rec, ranges)
		if err != nil {
			return fmt.Errorf("simulate %s: capture: %w", app, err)
		}
		if opt.StateDir != "" {
			if err := persistSnippets(opt.StateDir, app, snips); err != nil {
				return err
			}
		}
		reps, err = par.Map(ctx, len(snips), opt.Workers, func(i int) (*detsim.Report, error) {
			sim, err := detsim.New(simCfg)
			if err != nil {
				return nil, err
			}
			rep, err := sim.RunSnippet(snips[i])
			if err != nil {
				return nil, fmt.Errorf("simulate %s interval %d: %w", app, i, err)
			}
			return rep, nil
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -sim-mode %q (want snippets or serial)", opt.Mode)
	}
	elapsed := time.Since(start)

	// Everything below prints only quantities both modes agree on
	// byte-for-byte; mode and wall time are stderr-only narration.
	agg := detsim.MergeReports(reps)
	t := report.NewTable(fmt.Sprintf("%s (%s, %d intervals)", app, best.Config, len(ranges)),
		"Interval", "Warmup", "Invocations", "Detailed Instrs", "Detailed ms", "Warmup ms")
	for _, rep := range reps {
		rr := rep.Ranges[0]
		t.Row(fmt.Sprintf("[%d, %d)", rr.Range.From, rr.Range.To), rr.Range.Warmup,
			rr.Invocations, rr.DetailedInstrs, rr.DetailedTimeNs/1e6, rep.WarmupTimeNs/1e6)
	}
	t.Write(w)
	var hits, accesses uint64
	for _, c := range agg.Cache {
		hits += c.Hits
		accesses += c.Accesses
	}
	hitPct := 0.0
	if accesses > 0 {
		hitPct = 100 * float64(hits) / float64(accesses)
	}
	fmt.Fprintf(w, "%s: %d detailed + %d warmup invocations, %d instrs, modeled %.3f ms detailed + %.3f ms warmup, cache hit %.2f%%, %d DRAM accesses\n",
		app, agg.Detailed, agg.Warmed, agg.DetailedInstrs,
		agg.DetailedTimeNs/1e6, agg.WarmupTimeNs/1e6, hitPct, agg.MemAccesses)

	fmt.Fprintf(os.Stderr, "simulated %-28s %d intervals in %v (%s mode)\n", app, len(ranges), elapsed.Round(time.Millisecond), opt.Mode)
	return nil
}

// persistSnippets seals each captured snippet into
// <state-dir>/snippets/<app>-<i>.snip. Sealed files carry their own
// digest header, so a later process can replay them without the
// recording — and bit rot fails loudly instead of skewing results.
func persistSnippets(dir, app string, snips []*detsim.Snippet) error {
	base := filepath.Join(dir, "snippets")
	for i, sn := range snips {
		data, err := sn.Encode()
		if err != nil {
			return err
		}
		path := filepath.Join(base, fmt.Sprintf("%s-%d.snip", app, i))
		if _, err := runstate.WriteSealed(path, data); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "sealed %d snippets under %s\n", len(snips), base)
	return nil
}

// parseApps splits a comma-separated -sim-apps list, defaulting to the
// Figure 5 sample applications.
func parseApps(s string) []string {
	if s == "" {
		return fig5Apps
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
