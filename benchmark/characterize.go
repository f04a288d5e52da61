package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/gtpin"
	"gtpin/internal/workloads"
)

// characterize is the paper's profiling sweep: every application run
// natively under CoFluent and replayed under GT-Pin, three trials each,
// in memory. Each sweep starts with empty rewrite and replay caches, so
// trial 1 misses every cache and trials 2-3 hit. An op is one
// application's three trials, as workloads.RunPool settles them: one
// miss and two hits, so an op's time is not that of a 0.2 ms cache hit
// one time in two. A pass is two sweeps.
type characterize struct {
	cfg   config
	t     *tally
	log   io.Writer
	units []workloads.Unit
	ref   map[string]string // unit key -> artifact digest
}

const (
	trials        = 3
	sweepsPerPass = 2
)

func (c *characterize) describe() string {
	return fmt.Sprintf("%d apps x %d trials at scale %s, %d pool workers, caches emptied each sweep, an op per app, %d sweeps a pass",
		c.cfg.Size.Apps, trials, c.cfg.Size.Scale.Name, workers, sweepsPerPass)
}

// setup lays out the units and runs one untimed sweep, whose artifacts
// become the reference every measured sweep must reproduce.
func (c *characterize) setup() error {
	var seeds []int64
	for trial := int64(1); trial <= trials; trial++ {
		seeds = append(seeds, trials*(c.cfg.Seed-1)+trial)
	}
	c.units = layout(roster(c.cfg.Seed, workloads.All()[:c.cfg.Size.Apps]), c.cfg.Size.Scale, seeds...)
	if c.ref == nil {
		c.ref = make(map[string]string)
	}
	sw, err := c.sweep(nil)
	if err != nil {
		return err
	}
	for _, o := range sw.outs {
		if err := checkArtifact(c.ref, o); err != nil {
			return fmt.Errorf("unit %s: %w", o.Unit.Key(), err)
		}
	}
	return nil
}

func (c *characterize) measure(budget time.Duration, rec *recorder, host *hostSpeed) (*phase, error) {
	p := &phase{}
	var (
		busyNs  int64
		cache   workloads.ReplayCacheStats
		orphans int
		lat     []float64
	)
	before := snapshotCounters()
	err := passes(budget, host, func() error {
		var ps pass
		var wall, cpu time.Duration
		for i := 0; i < sweepsPerPass; i++ {
			sw, err := c.sweep(rec)
			if err != nil {
				return err
			}
			wall += sw.wall
			cpu += sw.cpu
			orphans += sw.orphans
			cache.Hits += sw.cache.Hits
			cache.Misses += sw.cache.Misses
			cache.NativeHits += sw.cache.NativeHits
			cache.NativeMisses += sw.cache.NativeMisses
			appErrs := make(map[string][]error)
			appCPU := make(map[string]time.Duration)
			for _, o := range sw.outs {
				app := o.Unit.Spec.Name
				if err := checkArtifact(c.ref, o); err != nil {
					appErrs[app] = append(appErrs[app], fmt.Errorf("unit %s: %w", o.Unit.Key(), err))
				}
				appCPU[app] += sw.unitCPU[o.Unit.Key()]
				lat = append(lat, float64(o.WallNs)/1e6)
				busyNs += o.WallNs
			}
			// The units are trial-major, so the first Apps of them name
			// every application once, in the seeded order.
			for _, u := range c.units[:c.cfg.Size.Apps] {
				app := u.Spec.Name
				c.t.op(app, errors.Join(appErrs[app]...))
				ps.cpuMs = append(ps.cpuMs, ms(appCPU[app]))
			}
		}
		ps.rate = float64(len(ps.cpuMs)) / cpu.Seconds()
		p.passes = append(p.passes, ps)
		p.ops += len(ps.cpuMs)
		p.wall += wall
		return nil
	})
	if err != nil || rec == nil {
		return p, err
	}
	after := snapshotCounters()
	delta := func(name string) uint64 { return after[name] - before[name] }
	self := selfTimes(rec.snapshot())
	p.layers = []string{"cofluent.native", "gtpin.replay", "gtpin.rewrite", "workloads.unit"}
	instrs := delta("engine_instructions_total")
	engineS := (self["cofluent.native"] + self["gtpin.replay"]).Seconds()
	p.perLayer = map[string]result.Metric{
		"cofluent.native_s":                perOp(self["cofluent.native"].Seconds(), p.ops, "s/op"),
		"gtpin.replay_s":                   perOp(self["gtpin.replay"].Seconds(), p.ops, "s/op"),
		"gtpin.rewrite_s":                  perOp(self["gtpin.rewrite"].Seconds(), p.ops, "s/op"),
		"profile.join_s":                   perOp(self["workloads.unit"].Seconds(), p.ops, "s/op"),
		"engine.instructions":              perOp(float64(instrs), p.ops, "count/op"),
		"engine.dispatches":                perOp(float64(delta("engine_dispatches_total")), p.ops, "count/op"),
		"engine.host_ns_per_instr":         perOp(engineS*1e9, int(instrs), "ns"),
		"gtpin.rewrites":                   perOp(float64(delta("gtpin_rewrites_total")), p.ops, "count/op"),
		"jit.cache_hit_ratio":              ratio(delta("jit_cache_hits_total"), delta("jit_cache_hits_total")+delta("jit_cache_misses_total")),
		"workloads.replay_cache_hit_ratio": ratio(cache.Hits, cache.Hits+cache.Misses),
		"workloads.native_cache_hit_ratio": ratio(cache.NativeHits, cache.NativeHits+cache.NativeMisses),
		"workloads.unit_p95_ms":            {Value: result.Percentile(lat, 95), Unit: "ms", N: len(lat)},
		"workloads.pool_idle_frac":         {Value: 1 - float64(busyNs)/(workers*float64(p.wall)), Unit: "frac"},
	}
	if orphans > 0 {
		fmt.Fprintf(c.log, "benchmark: %d program spans had no enclosing parent span\n", orphans)
	}
	return p, nil
}

// sweepResult is one RunPool over every unit.
type sweepResult struct {
	outs    []workloads.Outcome
	wall    time.Duration
	cpu     time.Duration            // process CPU time of the whole RunPool
	unitCPU map[string]time.Duration // unit key -> thread CPU time of the unit
	cache   workloads.ReplayCacheStats
	orphans int // imported program spans with no enclosing parent
}

// sweep runs every unit once with empty caches; traced, it also imports
// the program's own spans under the benchmark's RunPool span.
func (c *characterize) sweep(rec *recorder) (sweepResult, error) {
	runtime.GC() // as passes does, for each of a pass's sweeps
	gtpin.SetDefaultRewriteCache(gtpin.NewRewriteCache())
	rc := workloads.NewReplayCache()
	var prog *programTrace
	if rec != nil {
		prog = startProgramTrace()
	}
	sp := rec.open("workloads.run_pool", "sweep", 0)
	unitCPU := make(map[string]time.Duration, len(c.units))
	runtime.LockOSThread()
	start, cpu0 := time.Now(), cpuTime()
	last := threadCPUTime()
	// The one pool worker runs each unit on this goroutine and reports its
	// outcome before it starts the next, so a unit's CPU time runs from
	// one report to the next.
	outs, err := workloads.RunPool(context.Background(), c.units, workloads.PoolOptions{Workers: workers, ReplayCache: rc,
		OnOutcome: func(o workloads.Outcome) {
			now := threadCPUTime()
			unitCPU[o.Unit.Key()] = now - last
			last = now
		}})
	sw := sweepResult{outs: outs, wall: time.Since(start), cpu: cpuTime() - cpu0, unitCPU: unitCPU, cache: rc.Stats()}
	runtime.UnlockOSThread()
	sp.end()
	if prog != nil {
		ps, perr := prog.stop()
		if perr != nil {
			return sw, perr
		}
		sw.orphans = importPipeline(rec, sp.id(), ps)
	}
	if err != nil {
		return sw, fmt.Errorf("run pool: %w", err)
	}
	return sw, nil
}

func (c *characterize) digest() string { return digestOf(c.ref) }

// importPipeline turns the program's own unit, pipeline-phase and
// rewrite spans into child spans: units under the RunPool span, native
// and replay phases under their unit (matched by application and time),
// rewrites under the replay that encloses them. It returns how many
// spans found no enclosing parent and were hung on the RunPool span.
func importPipeline(rec *recorder, root int64, ps []programSpan) (orphans int) {
	type placed struct {
		app        string
		id         int64
		start, end int64
	}
	at := func(t time.Time) int64 { return t.Sub(rec.t0).Nanoseconds() }
	var units, replays []placed
	for _, p := range ps {
		if p.Cat != "unit" {
			continue
		}
		app, _, _ := strings.Cut(p.Name, "|")
		u := placed{app: app, id: rec.newID(), start: at(p.Start), end: at(p.End)}
		rec.add(span{ID: u.id, Parent: root, Name: "workloads.unit", Req: p.Name, Start: u.start, End: u.end})
		units = append(units, u)
	}
	// enclosing returns the latest-starting candidate containing [s, e)
	// and matching app ("" matches any).
	enclosing := func(cands []placed, app string, s, e int64) (placed, bool) {
		var best placed
		found := false
		for _, c := range cands {
			if (app == "" || c.app == app) && c.start <= s && e <= c.end && (!found || c.start > best.start) {
				best, found = c, true
			}
		}
		return best, found
	}
	for _, p := range ps {
		if p.Cat != "pipeline" {
			continue
		}
		phaseName, app, _ := strings.Cut(p.Name, " ")
		name := map[string]string{"native": "cofluent.native", "replay": "gtpin.replay"}[phaseName]
		if name == "" {
			continue
		}
		s, e := at(p.Start), at(p.End)
		parent, req := root, app
		if u, ok := enclosing(units, app, s, e); ok {
			parent = u.id
		} else {
			orphans++
		}
		id := rec.newID()
		rec.add(span{ID: id, Parent: parent, Name: name, Req: req, Start: s, End: e})
		if name == "gtpin.replay" {
			replays = append(replays, placed{app: app, id: id, start: s, end: e})
		}
	}
	for _, p := range ps {
		if p.Cat != "gtpin" {
			continue
		}
		s, e := at(p.Start), at(p.End)
		parent, req := root, p.Name
		if r, ok := enclosing(replays, "", s, e); ok {
			parent, req = r.id, r.app
		} else {
			orphans++
		}
		rec.add(span{ID: rec.newID(), Parent: parent, Name: "gtpin.rewrite", Req: req, Start: s, End: e})
	}
	return orphans
}
