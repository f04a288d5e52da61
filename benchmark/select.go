package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/par"
	"gtpin/internal/profile"
	"gtpin/internal/selection"
	"gtpin/internal/simpoint"
	"gtpin/internal/workloads"
)

// selectWL is the paper's subset-selection stage (steps 4-5): for every
// profile and each of the 30 interval/feature configurations, divide the
// execution into intervals, extract feature vectors, cluster them with
// SimPoint and project whole-program SPI. It does no engine work, so a
// change to the engine must leave it flat. An op is one evaluation.
type selectWL struct {
	cfg   config
	t     *tally
	log   io.Writer
	opts  selection.Options
	items []selItem
	art   map[string]string // app -> artifact digest, across setup reps

	mu    sync.Mutex
	ref   map[string]string      // item -> digest of its first measured result
	first map[string]evalSummary // item -> first measured result
}

type selItem struct {
	p   *profile.Profile
	cfg selection.Config
	key string
}

// evalSummary is the part of a selection.Evaluation that is compared
// across passes and hashed for the golden digest.
type evalSummary struct {
	NumIntervals int                  `json:"num_intervals"`
	Selections   []simpoint.Selection `json:"selections"`
	ErrorPct     float64              `json:"error_pct"`
	SelectedFrac float64              `json:"selected_frac"`
	Speedup      float64              `json:"speedup"`
}

// selOut is one evaluation's outcome within a pass.
type selOut struct {
	sum                 evalSummary
	err                 error
	dur, cpu            time.Duration // wall-clock and thread CPU time
	intervals, nonzeros int
}

func (s *selectWL) describe() string {
	return fmt.Sprintf("%d profiles at scale %s x %d configs, %d par workers",
		s.cfg.Size.Apps, s.cfg.Size.Scale.Name, len(selection.AllConfigs()), workers)
}

// setup profiles the applications; the trial seed is the run seed, so
// the seed reaches the profile timings as well as SimPoint.
func (s *selectWL) setup() error {
	if s.art == nil {
		s.art = make(map[string]string)
		s.ref = make(map[string]string)
		s.first = make(map[string]evalSummary)
	}
	outs, err := profileUnits(layout(roster(s.cfg.Seed, workloads.All()[:s.cfg.Size.Apps]), s.cfg.Size.Scale, s.cfg.Seed), s.art)
	if err != nil {
		return err
	}
	s.opts = selection.Options{ApproxTarget: workloads.ApproxTarget(s.cfg.Size.Scale), Seed: s.cfg.Seed}
	s.items = s.items[:0]
	for _, o := range outs {
		for _, c := range selection.AllConfigs() {
			s.items = append(s.items, selItem{p: o.Result.Profile, cfg: c, key: o.Result.Profile.App + "|" + c.String()})
		}
	}
	// Items run in a seeded order; each pass is the same multiset.
	shuffled := make([]selItem, len(s.items))
	for i, j := range permutation(s.cfg.Seed, len(s.items)) {
		shuffled[i] = s.items[j]
	}
	s.items = shuffled
	return nil
}

func (s *selectWL) measure(budget time.Duration, rec *recorder, host *hostSpeed) (*phase, error) {
	p := &phase{}
	var busy time.Duration
	var intervalsN, nonzeros, selections int
	err := passes(budget, host, func() error {
		sp := rec.open("par.map", fmt.Sprintf("pass %d", len(p.passes)+1), 0)
		// The one par worker evaluates every item on this goroutine.
		runtime.LockOSThread()
		start, cpu0 := time.Now(), cpuTime()
		// Item errors travel in the outcomes; the context never ends.
		outs, _ := par.Map(context.Background(), len(s.items), workers, func(i int) (selOut, error) {
			return s.evaluate(s.items[i], rec, sp.id()), nil
		})
		wall, cpu := time.Since(start), cpuTime()-cpu0
		runtime.UnlockOSThread()
		sp.end()
		ps := pass{rate: float64(len(outs)) / cpu.Seconds()}
		for i, o := range outs {
			it := s.items[i]
			err := o.err
			if err == nil {
				err = s.check(it.key, o.sum)
			}
			s.t.op(it.key, err)
			ps.cpuMs = append(ps.cpuMs, ms(o.cpu))
			busy += o.dur
			intervalsN += o.intervals
			nonzeros += o.nonzeros
			selections += len(o.sum.Selections)
		}
		p.passes = append(p.passes, ps)
		p.ops += len(outs)
		p.wall += wall
		return nil
	})
	errPct, speedup := s.accuracy()
	p.exact = map[string]float64{"selection.subset_error_pct": errPct, "selection.subset_speedup_x": speedup}
	if err != nil || rec == nil {
		return p, err
	}
	self := selfTimes(rec.snapshot())
	p.layers = []string{"intervals.divide", "features.extract", "simpoint.run", "selection.project"}
	p.perLayer = map[string]result.Metric{
		"intervals.divide_s":         perOp(self["intervals.divide"].Seconds(), p.ops, "s/op"),
		"features.extract_s":         perOp(self["features.extract"].Seconds(), p.ops, "s/op"),
		"simpoint.run_s":             perOp(self["simpoint.run"].Seconds(), p.ops, "s/op"),
		"selection.project_s":        perOp(self["selection.project"].Seconds(), p.ops, "s/op"),
		"intervals.count":            perOp(float64(intervalsN), p.ops, "count/op"),
		"features.nonzeros":          perOp(float64(nonzeros), p.ops, "count/op"),
		"simpoint.selections":        perOp(float64(selections), p.ops, "count/op"),
		"par.idle_frac":              {Value: 1 - busy.Seconds()/(workers*p.wall.Seconds()), Unit: "frac"},
		"selection.subset_error_pct": {Value: errPct, Unit: "%", N: s.cfg.Size.Apps, Note: "mean over apps of the MinError configuration's Eq. 1 error"},
		"selection.subset_speedup_x": {Value: speedup, Unit: "x", N: s.cfg.Size.Apps, Note: "mean over apps of the MinError configuration's speedup"},
	}
	return p, nil
}

// evaluate runs one evaluation. Untraced, it calls selection.Evaluate;
// traced, it composes the same pipeline from the public functions of
// each layer with a span around each call, and check then holds it to
// the untraced result.
func (s *selectWL) evaluate(it selItem, rec *recorder, parent int64) selOut {
	start, cpu0 := time.Now(), threadCPUTime()
	var o selOut
	if rec == nil {
		ev, err := selection.Evaluate(it.p, it.cfg, s.opts)
		o.err = err
		if err == nil {
			o.sum = evalSummary{ev.NumIntervals, ev.Selections, ev.ErrorPct, ev.SelectedFrac, ev.Speedup}
		}
	} else {
		o = s.compose(it, rec, parent)
	}
	o.dur, o.cpu = time.Since(start), threadCPUTime()-cpu0
	return o
}

func (s *selectWL) compose(it selItem, rec *recorder, parent int64) selOut {
	op := rec.open("selection.evaluate", it.key, parent)
	defer op.end()
	var o selOut

	sp := rec.open("intervals.divide", it.key, op.id())
	ivs, err := intervals.Divide(it.p, it.cfg.Scheme, s.opts.ApproxTarget)
	sp.end()
	if err != nil {
		o.err = err
		return o
	}
	sp = rec.open("features.extract", it.key, op.id())
	vecs := features.ExtractAll(it.p, ivs, it.cfg.Feature)
	sp.end()
	weights := make([]float64, len(ivs))
	for i, iv := range ivs {
		weights[i] = float64(iv.Instrs)
	}
	sp = rec.open("simpoint.run", it.key, op.id())
	res, err := simpoint.Run(vecs, weights, simpoint.DefaultConfig(s.opts.Seed))
	sp.end()
	if err != nil {
		o.err = err
		return o
	}
	sp = rec.open("selection.project", it.key, op.id())
	projected := selection.ProjectSPI(ivs, res.Selections)
	sp.end()

	measured := it.p.MeasuredSPI()
	var selInstrs uint64
	for _, sel := range res.Selections {
		selInstrs += ivs[sel.Interval].Instrs
	}
	total := it.p.TotalInstrs()
	o.sum = evalSummary{
		NumIntervals: len(ivs),
		Selections:   res.Selections,
		ErrorPct:     math.Abs(measured-projected) / measured * 100,
		SelectedFrac: float64(selInstrs) / float64(total),
	}
	if selInstrs > 0 {
		o.sum.Speedup = float64(total) / float64(selInstrs)
	}
	o.intervals = len(ivs)
	for _, v := range vecs {
		o.nonzeros += len(v)
	}
	return o
}

// check holds an evaluation to the first measured result for its item.
func (s *selectWL) check(key string, got evalSummary) error {
	d, err := jsonDigest(got)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.first[key]; !ok {
		s.first[key] = got
	}
	return checkRef(s.ref, key, d)
}

// accuracy is the mean, over applications, of the error and speedup of
// each application's minimum-error configuration (Figure 6's policy).
func (s *selectWL) accuracy() (errPct, speedup float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := make(map[string]evalSummary)
	for _, it := range s.items {
		e, ok := s.first[it.key]
		if !ok {
			continue
		}
		b, seen := best[it.p.App]
		if !seen || e.ErrorPct < b.ErrorPct || e.ErrorPct == b.ErrorPct && e.SelectedFrac < b.SelectedFrac {
			best[it.p.App] = e
		}
	}
	errs, speedups := make(map[string]float64), make(map[string]float64)
	for app, e := range best {
		errs[app], speedups[app] = e.ErrorPct, e.Speedup
	}
	return meanByKey(errs), meanByKey(speedups)
}

func (s *selectWL) digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return digestOf(s.ref)
}
