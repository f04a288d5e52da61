// Command repro is the one-shot reproduction driver: it runs the entire
// pipeline — characterization, interval/feature exploration, selection,
// co-optimization, and cross-trial/frequency/architecture validation —
// and prints each headline number of the paper next to the measured
// value, with a band verdict.
//
// Usage:
//
//	repro [-scale small|full|tiny] [-skip-validate] [-state-dir DIR] [-resume] [-timeout D]
//	      [-fleet N]
//
// At -scale small the whole run takes a couple of minutes; -scale full
// matches the committed reference outputs under results/.
//
// With -state-dir the profiling sweep is journaled: each application's
// profile artifact and CoFluent recording are persisted atomically, and
// a killed run continued with -resume skips journaled-complete
// applications (digest-verified) and reproduces the same headline
// numbers an uninterrupted run prints. See docs/checkpointing.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/harness"
	"gtpin/internal/intervals"
	"gtpin/internal/isa"
	"gtpin/internal/par"
	"gtpin/internal/profile"
	"gtpin/internal/report"
	"gtpin/internal/runstate"
	"gtpin/internal/selection"
	"gtpin/internal/stats"
	"gtpin/internal/workloads"
)

type check struct {
	name     string
	paper    string
	measured string
	ok       bool
}

var skipValidate = flag.Bool("skip-validate", false, "skip the Figure 8 validations (the slowest step)")

func main() {
	harness.Main(harness.Config{Name: "repro", Scale: "small", State: true, Workers: true, Fleet: true}, run)
}

func run(h *harness.Session) error {
	opts := selection.Options{ApproxTarget: workloads.ApproxTarget(h.Scale), Seed: 42}
	base := device.IvyBridgeHD4000()

	var checks []check
	add := func(name, paper, measured string, ok bool) {
		checks = append(checks, check{name, paper, measured, ok})
	}

	// ---- Profile all 25 applications. ----
	// Every downstream number is computed from each unit's durable
	// artifact (profile + API-call counts) and, for the replay
	// validations, its persisted recording — so a resumed run reproduces
	// the same headline numbers without re-profiling completed apps.
	type appRun struct {
		spec      *workloads.Spec
		art       *workloads.Artifact
		prof      *profile.Profile
		recording func() (*cofluent.Recording, error)
		evals     []*selection.Evaluation
	}
	specs := workloads.All()
	// The replay validations need each unit's recording; with a state dir
	// it is persisted next to the artifact, so resumed units and fleet
	// workers hand it over too.
	outs, err := h.Sweep(h.Units(specs, base), true, harness.Progress)
	if err != nil {
		return err
	}
	apps := make([]appRun, len(specs))
	for i, o := range outs {
		if o.Err != nil {
			// The reproduction needs every application; a journaled run
			// can be continued after the failure is addressed.
			return fmt.Errorf("%s: %w", specs[i].Name, o.Err)
		}
		prof, err := o.Artifact.Profile()
		if err != nil {
			return err
		}
		evals, err := selection.EvaluateAll(prof, opts)
		if err != nil {
			return err
		}
		apps[i] = appRun{spec: specs[i], art: o.Artifact, prof: prof, evals: evals, recording: recordingSource(o, h.State)}
	}
	add("Table I: benchmark roster", "25 apps in 4 suites",
		fmt.Sprintf("%d apps", len(apps)), len(apps) == 25)

	// ---- Figure 3/4 characterization. ----
	var kPct, sPct, comp, ctrl []float64
	var w16w8, w4 float64
	var totalInstr float64
	for _, a := range apps {
		k, s, _ := a.art.BreakdownPct()
		kPct = append(kPct, k)
		sPct = append(sPct, s)
		agg := a.prof.Aggregate()
		ti := float64(agg.Instrs)
		comp = append(comp, stats.Pct(float64(agg.ByCategory[isa.CatComputation]), ti))
		ctrl = append(ctrl, stats.Pct(float64(agg.ByCategory[isa.CatControl]), ti))
		w16w8 += float64(agg.ByWidth[isa.WidthIndex(isa.W16)] + agg.ByWidth[isa.WidthIndex(isa.W8)])
		w4 += float64(agg.ByWidth[isa.WidthIndex(isa.W4)])
		totalInstr += ti
	}
	mk := stats.Mean(kPct)
	add("Fig 3a: mean kernel-call share", "~15%",
		fmt.Sprintf("%.1f%%", mk), mk > 8 && mk < 30)
	ms := stats.Mean(sPct)
	add("Fig 3a: mean sync-call share", "6.8%",
		fmt.Sprintf("%.1f%%", ms), ms > 3 && ms < 12)
	mc := stats.Mean(comp)
	add("Fig 4a: mean computation share", "36.2%",
		fmt.Sprintf("%.1f%%", mc), mc > 28 && mc < 45)
	mct := stats.Mean(ctrl)
	add("Fig 4a: mean control share", "7.3%",
		fmt.Sprintf("%.1f%%", mct), mct > 4 && mct < 13)
	w168 := 100 * w16w8 / totalInstr
	add("Fig 4b: SIMD16+SIMD8 share", "97%",
		fmt.Sprintf("%.1f%%", w168), w168 > 85)
	w4pct := 100 * w4 / totalInstr
	add("Fig 4b: SIMD4 share", "<0.1%",
		fmt.Sprintf("%.2f%%", w4pct), w4pct < 1)

	// ---- Table II: interval counts. ----
	for si, s := range intervals.Schemes {
		var counts []float64
		for _, a := range apps {
			ivs, err := intervals.Divide(a.prof, s, opts.ApproxTarget)
			if err != nil {
				return err
			}
			counts = append(counts, float64(len(ivs)))
		}
		paper := []string{"56/545/2115", "55/916/3121", "55/4749/18157"}[si]
		add(fmt.Sprintf("Table II: %s intervals (min/avg/max)", s),
			paper,
			fmt.Sprintf("%.0f/%.0f/%.0f", stats.Min(counts), stats.Mean(counts), stats.Max(counts)),
			stats.Mean(counts) > 10)
	}

	// ---- Figure 6: per-app error-minimizing configuration. ----
	var errs, spds []float64
	bb := 0
	for _, a := range apps {
		best := selection.MinError(a.evals)
		errs = append(errs, best.ErrorPct)
		spds = append(spds, best.Speedup)
		if best.Config.Feature.IsBlockBased() {
			bb++
		}
	}
	me := stats.Mean(errs)
	add("Fig 6: avg error (per-app best config)", "0.3%",
		fmt.Sprintf("%.2f%%", me), me < 1.5)
	we := stats.Max(errs)
	add("Fig 6: worst error", "2.1%",
		fmt.Sprintf("%.2f%%", we), we < 10)
	msd := stats.Mean(spds)
	add("Fig 6: avg simulation speedup", "35X (6X-6509X)",
		fmt.Sprintf("%.0fX", msd), msd > 5)
	// Reduced scales blur the BB-vs-KN gap (fewer intervals per app); the
	// full-scale run reaches 19/25.
	add("Fig 6: block-based features preferred", "20/25",
		fmt.Sprintf("%d/25", bb), bb >= 10)

	// ---- Figure 7: co-optimization monotonicity and the 10% point. ----
	mono := true
	prev := 0.0
	var err10, spd10 []float64
	for _, thr := range []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		var spdsT []float64
		for _, a := range apps {
			ev := selection.SmallestUnderThreshold(a.evals, thr)
			spdsT = append(spdsT, ev.Speedup)
			if thr == 10 {
				err10 = append(err10, ev.ErrorPct)
				spd10 = append(spd10, ev.Speedup)
			}
		}
		m := stats.Mean(spdsT)
		if m < prev-1e-9 {
			mono = false
		}
		prev = m
	}
	add("Fig 7: speedup monotone in threshold", "monotone", boolWord(mono), mono)
	add("Fig 7: avg error at 10% threshold", "3.0%",
		fmt.Sprintf("%.2f%%", stats.Mean(err10)), stats.Mean(err10) < 6)
	add("Fig 7: avg speedup at 10% threshold", "223X",
		fmt.Sprintf("%.0fX", stats.Mean(spd10)), stats.Mean(spd10) > 50)

	// ---- Figure 8: validations. ----
	if !*skipValidate {
		crossErrs := func(cfg device.Config, seed int64) ([]float64, error) {
			out := make([]float64, len(apps))
			if err := par.ForEachN(h.Ctx, len(apps), h.Workers, func(i int) error {
				best := selection.MinError(apps[i].evals)
				rec, err := apps[i].recording()
				if err != nil {
					return err
				}
				times, err := workloads.TimedReplay(rec, cfg, seed)
				if err != nil {
					return err
				}
				e, err := selection.CrossError(best, apps[i].prof, times)
				if err != nil {
					return err
				}
				out[i] = e
				return nil
			}); err != nil {
				return nil, err
			}
			return out, nil
		}
		fmt.Fprintln(os.Stderr, "validating trials / frequencies / Haswell ...")
		trial, err := crossErrs(base, 2)
		if err != nil {
			return err
		}
		under3 := 0
		for _, e := range trial {
			if e < 3 {
				under3++
			}
		}
		add("Fig 8: cross-trial errors below 3%", "most", fmt.Sprintf("%d/25", under3), under3 >= 20)
		freq, err := crossErrs(base.WithFrequency(350), 1)
		if err != nil {
			return err
		}
		under3 = 0
		for _, e := range freq {
			if e < 3 {
				under3++
			}
		}
		add("Fig 8: 350MHz errors below 3%", "most", fmt.Sprintf("%d/25", under3), under3 >= 20)
		hsw, err := crossErrs(device.HaswellHD4600(), 1)
		if err != nil {
			return err
		}
		under3 = 0
		for _, e := range hsw {
			if e < 3 {
				under3++
			}
		}
		add("Fig 8: Haswell errors below 3%", "most (worst ~11%)", fmt.Sprintf("%d/25", under3), under3 >= 18)

		ivb, err := workloads.LuxMarkScore(h.Unit(nil, base))
		if err != nil {
			return err
		}
		hswScore, err := workloads.LuxMarkScore(h.Unit(nil, device.HaswellHD4600()))
		if err != nil {
			return err
		}
		ratio := hswScore / ivb
		add("Fig 8: LuxMark HD4600/HD4000 ratio", "1.30x (351/269)",
			fmt.Sprintf("%.2fx", ratio), ratio > 1.1 && ratio < 1.6)
	}

	// ---- Verdict. ----
	t := report.NewTable(fmt.Sprintf("Reproduction summary (scale=%s)", h.Scale.Name),
		"Check", "Paper", "Measured", "Verdict")
	passed := 0
	for _, c := range checks {
		verdict := "IN BAND"
		if !c.ok {
			verdict = "OUT OF BAND"
		} else {
			passed++
		}
		t.Row(c.name, c.paper, c.measured, verdict)
	}
	t.Write(os.Stdout)
	fmt.Printf("%d/%d checks in band\n", passed, len(checks))
	if passed < len(checks) {
		return fmt.Errorf("%d of %d checks out of band", len(checks)-passed, len(checks))
	}
	return nil
}

// recordingSource returns the replay-validation recording for one
// settled unit: the in-memory one when the unit executed this process,
// or the persisted blob when it was resumed from the journal or
// executed by a fleet worker (whose in-memory state died with it).
// Journaled repro runs persist recordings alongside artifacts in both
// cases.
func recordingSource(o workloads.Outcome, state *runstate.Dir) func() (*cofluent.Recording, error) {
	if o.Result != nil {
		rec := o.Result.Recording
		return func() (*cofluent.Recording, error) { return rec, nil }
	}
	key := o.Unit.Key()
	return func() (*cofluent.Recording, error) {
		if state == nil || !o.Artifact.HasRecording {
			return nil, fmt.Errorf("repro: no persisted recording for unit %s", key)
		}
		return cofluent.LoadFile(state.UnitFile(key, ".rec"))
	}
}

func boolWord(b bool) string {
	if b {
		return "monotone"
	}
	return "NOT monotone"
}
