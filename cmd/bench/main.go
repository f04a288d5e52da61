// Command bench is the benchmark-regression harness for the profiling
// hot path: it runs one characterization sweep three ways — the
// pre-optimization baseline (serial, rewrite cache disabled), the
// optimized path (sharded across -workers with the content-addressed
// rewrite cache), and an observed run (optimized options with the obs
// tracer installed) — verifies all runs settle into byte-identical
// artifacts, and records the wall-clock comparisons in a JSON report
// written atomically so CI can trend it across commits. The observed
// run is what enforces the observability layer's two invariants:
// artifacts unchanged, wall-clock overhead bounded by -max-obs-overhead.
//
// The overhead ratio is a quotient of two wall-clock times, so a single
// scheduler hiccup in either sweep used to flip the -max-obs-overhead
// gate. Two defenses are built in: the optimized and observed sweeps
// are each repeated -overhead-reps times (fresh caches per rep) and the
// gate compares medians, and -obs-overhead-warn downgrades a gate
// breach to a warning for environments (shared CI boxes) where even the
// median is not trustworthy.
//
// The detailed-interpreter gate (-min-detsim-ratio) compares against the
// baseline report named by -prior, the committed BENCH_sweep.json by
// default, and never reads the report the run writes (-out): a run
// cannot overwrite the baseline it is gated against, so a regressed run
// never becomes the next baseline. Rebaselining means naming the
// committed file as -out on purpose (make bench-baseline).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/gtpin"
	"gtpin/internal/harness"
	"gtpin/internal/kernel"
	"gtpin/internal/memo"
	"gtpin/internal/obs"
	"gtpin/internal/runstate"
	"gtpin/internal/testgen"
	"gtpin/internal/workloads"
)

// report is the schema of BENCH_sweep.json.
type report struct {
	Scale         string  `json:"scale"`
	Trials        int     `json:"trials"`
	Units         int     `json:"units"`
	Workers       int     `json:"workers"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	BaselineNs    int64   `json:"baseline_ns"` // serial, cache disabled
	OptimizedNs   int64   `json:"optimized_ns"`
	Speedup       float64 `json:"speedup"`
	ByteIdentical bool    `json:"byte_identical"`
	RewriteHits   uint64  `json:"rewrite_cache_hits"`
	RewriteMisses uint64  `json:"rewrite_cache_misses"`
	ReplayHits    uint64  `json:"replay_cache_hits"`
	ReplayMisses  uint64  `json:"replay_cache_misses"`
	NativeHits    uint64  `json:"native_cache_hits"`
	NativeMisses  uint64  `json:"native_cache_misses"`

	// Observed run: the optimized configuration with the span tracer
	// installed. ObsOverhead is observed/optimized wall time; trace
	// events count what the tracer captured. OptimizedNs and ObservedNs
	// are each the median of OverheadReps repetitions.
	ObservedNs       int64   `json:"observed_ns"`
	ObsOverhead      float64 `json:"obs_overhead"`
	ObsByteIdentical bool    `json:"obs_byte_identical"`
	TraceEvents      int     `json:"trace_events"`
	OverheadReps     int     `json:"overhead_reps"`

	// Detailed-interpreter throughput (engine cycle-level loop driven
	// through detsim), in millions of simulated instructions per second.
	// Gated against the previous report by -min-detsim-ratio.
	DetsimMIPS float64 `json:"detsim_mips"`
}

// speedup computes base/other, refusing degenerate timings: a zero or
// negative denominator yields +Inf (or NaN), which compares greater
// than any -min-speedup threshold and would silently pass the gate.
func speedup(base, other time.Duration) (float64, error) {
	if base <= 0 || other <= 0 {
		return 0, fmt.Errorf("degenerate sweep timings (%v vs %v); refusing to compute a ratio", base, other)
	}
	return float64(base) / float64(other), nil
}

// median returns the median of the given durations (the mean of the two
// middle values for even counts). The overhead gate compares medians
// rather than single runs because a lone scheduler stall in either sweep
// skews a one-shot ratio far more than it can skew the middle of N.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// buildUnits lays out the benchmark sweep: every workload at the given
// scale, repeated for trials seeds — the shape of a real
// characterization run, where repeated trials re-instrument the same
// kernels and the rewrite cache earns its keep.
func buildUnits(sc workloads.Scale, trials int) []workloads.Unit {
	specs := workloads.All()
	units := make([]workloads.Unit, 0, len(specs)*trials)
	for trial := 1; trial <= trials; trial++ {
		for _, s := range specs {
			units = append(units, workloads.Unit{
				Spec: s, Scale: sc, Cfg: device.IvyBridgeHD4000(), TrialSeed: int64(trial),
			})
		}
	}
	return units
}

// sweep runs the unit list and returns wall time plus the encoded
// artifact of every unit, in unit order.
func sweep(ctx context.Context, units []workloads.Unit, opts workloads.PoolOptions) (time.Duration, [][]byte, error) {
	t0 := time.Now()
	outs, err := workloads.RunPool(ctx, units, opts)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	enc := make([][]byte, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return 0, nil, fmt.Errorf("unit %s: %w", units[i].Key(), o.Err)
		}
		data, err := o.Artifact.Encode()
		if err != nil {
			return 0, nil, fmt.Errorf("unit %s: encode: %w", units[i].Key(), err)
		}
		enc[i] = data
	}
	return elapsed, enc, nil
}

// detsimRecording builds the detailed-interpreter benchmark input: a
// deterministic testgen program recorded through the functional device,
// the same shape BenchmarkDetailedInterp uses.
func detsimRecording(seed int64, steps int) (*cofluent.Recording, int, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := testgen.DefaultConfig()
	p := testgen.Program(rng, fmt.Sprintf("bench%d", seed), cfg)
	sched := testgen.Driver(rng, p, steps, cfg)

	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		return nil, 0, err
	}
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	q := ctx.CreateQueue()
	in, err := ctx.CreateBuffer(1 << 12)
	if err != nil {
		return nil, 0, err
	}
	out, err := ctx.CreateBuffer(1 << 12)
	if err != nil {
		return nil, 0, err
	}
	data := make([]byte, 1<<12)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := q.EnqueueWriteBuffer(in, 0, data); err != nil {
		return nil, 0, err
	}
	prog := ctx.CreateProgram(p)
	if err := prog.Build(); err != nil {
		return nil, 0, err
	}
	kernels := map[string]*cl.Kernel{}
	for _, k := range p.Kernels {
		ko, err := prog.CreateKernel(k.Name)
		if err != nil {
			return nil, 0, err
		}
		if err := ko.SetBuffer(0, in); err != nil {
			return nil, 0, err
		}
		if err := ko.SetBuffer(1, out); err != nil {
			return nil, 0, err
		}
		kernels[k.Name] = ko
	}
	for _, s := range sched {
		ko := kernels[s.Kernel]
		if err := ko.SetArg(0, s.Iters); err != nil {
			return nil, 0, err
		}
		if err := q.EnqueueNDRangeKernel(ko, s.GWS); err != nil {
			return nil, 0, err
		}
	}
	if err := q.Finish(); err != nil {
		return nil, 0, err
	}
	rec, err := cofluent.Record("bench", tr, []*kernel.Program{p})
	if err != nil {
		return nil, 0, err
	}
	return rec, len(tr.Timings()), nil
}

// measureDetsim times full detailed simulation of a fixed recording and
// returns throughput in millions of simulated instructions per second.
// One untimed warm-up rep steadies the runtime; the best of reps timed
// passes is reported, which is the standard defense against scheduler
// noise in a wall-clock gate.
func measureDetsim(reps int) (float64, error) {
	rec, n, err := detsimRecording(1234, 8)
	if err != nil {
		return 0, fmt.Errorf("detsim benchmark recording: %w", err)
	}
	best := 0.0
	for rep := 0; rep <= reps; rep++ {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		r, err := sim.Run(rec, []detsim.Range{{From: 0, To: n}})
		elapsed := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("detsim benchmark run: %w", err)
		}
		if rep == 0 {
			continue // warm-up
		}
		if elapsed <= 0 || r.DetailedInstrs == 0 {
			return 0, fmt.Errorf("degenerate detsim benchmark (%v, %d instrs)", elapsed, r.DetailedInstrs)
		}
		if mips := float64(r.DetailedInstrs) / elapsed.Seconds() / 1e6; mips > best {
			best = mips
		}
	}
	return best, nil
}

// priorDetsimMIPS reads a baseline report's detsim_mips, for the
// regression gate. A missing report, or one predating the field, yields
// 0 — the gate is then skipped.
func priorDetsimMIPS(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var prior report
	if err := json.Unmarshal(data, &prior); err != nil {
		return 0, fmt.Errorf("prior report %s: %w", path, err)
	}
	return prior.DetsimMIPS, nil
}

// detsimGate checks a run's detailed-interpreter throughput against the
// baseline report at -prior, which is never the report this run writes
// (-out) unless the caller names the same file for both, as a deliberate
// rebaseline does. It returns the baseline's value (0 when there is
// none) and, with -min-detsim-ratio set, an error when the run falls
// below that share of it — or when there is no baseline and
// -require-detsim-prior says the gate must arm.
func detsimGate(mips float64) (float64, error) {
	prior, err := priorDetsimMIPS(*priorPath)
	if err != nil || *minDetsimRatio <= 0 {
		return prior, err
	}
	if prior <= 0 {
		// No baseline: the ratio gate has nothing to compare against.
		// Say so loudly — a silently skipped gate reads as a pass — and
		// fail outright when the caller requires a baseline.
		if *requireDetsimPrior {
			return 0, fmt.Errorf("detsim gate cannot arm: -min-detsim-ratio %.2f set but no prior report at %s (-require-detsim-prior)", *minDetsimRatio, *priorPath)
		}
		fmt.Fprintf(os.Stderr, "bench: WARNING: detsim gate SKIPPED: no prior report at %s to compare against\n", *priorPath)
		return 0, nil
	}
	if mips < prior**minDetsimRatio {
		return prior, fmt.Errorf("detailed interpreter %.1f MI/s below %.0f%% of prior %.1f MI/s (%s)",
			mips, *minDetsimRatio*100, prior, *priorPath)
	}
	return prior, nil
}

var (
	workers            = flag.Int("workers", 0, "shard count for the optimized run (0 = GOMAXPROCS)")
	trials             = flag.Int("trials", 3, "trial seeds per workload (re-instrumentation pressure)")
	out                = flag.String("out", "BENCH_sweep.json", "report path (written atomically)")
	priorPath          = flag.String("prior", "BENCH_sweep.json", "baseline report the detsim gate reads (the committed one by default; only read, never written)")
	minSpeedup         = flag.Float64("min-speedup", 0, "fail unless optimized/baseline speedup reaches this factor")
	maxObsOverhead     = flag.Float64("max-obs-overhead", 0, "fail if the traced run exceeds this multiple of the optimized wall time (0 = report only)")
	obsOverheadWarn    = flag.Bool("obs-overhead-warn", false, "downgrade a -max-obs-overhead breach from a failure to a warning (for noisy shared machines)")
	overheadReps       = flag.Int("overhead-reps", 3, "repetitions of the optimized and observed sweeps; the overhead gate compares median wall times")
	minDetsimRatio     = flag.Float64("min-detsim-ratio", 0, "fail if detailed-interpreter MI/s falls below this fraction of the -prior report's (0 = report only)")
	requireDetsimPrior = flag.Bool("require-detsim-prior", false, "fail if -min-detsim-ratio is set but no -prior report exists to gate against (CI arms this so the gate can never be silently vacuous)")
	detsimReps         = flag.Int("detsim-reps", 3, "timed repetitions of the detailed-interpreter benchmark (best is kept)")
)

func main() {
	harness.Main(harness.Config{Name: "bench", Scale: "tiny"}, run)
}

func run(h *harness.Session) error {
	if *overheadReps < 1 {
		return fmt.Errorf("-overhead-reps %d: need at least one repetition", *overheadReps)
	}
	sc, ctx := h.Scale, h.Ctx
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	units := buildUnits(sc, *trials)

	// Warm-up pass: populates the page cache and steadies the Go runtime
	// so neither timed run pays one-time costs. Not timed.
	gtpin.SetDefaultRewriteCache(gtpin.NewRewriteCache())
	if _, _, err := sweep(ctx, units, workloads.PoolOptions{Workers: w}); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}

	// Baseline: the pre-optimization hot path — one unit at a time, every
	// unit rewriting its kernels and re-executing its instrumented replay
	// from scratch.
	gtpin.SetDefaultRewriteCache(nil)
	baseNs, baseArt, err := sweep(ctx, units, workloads.PoolOptions{
		Workers: 1, DisableReplayCache: true,
	})
	if err != nil {
		return fmt.Errorf("baseline sweep: %w", err)
	}

	// Optimized: sharded execution sharing the content-addressed rewrite
	// cache and the per-pool replay cache. Repeated -overhead-reps times
	// with fresh caches each rep so no rep inherits warmth from the one
	// before; the median wall time feeds the speedup and overhead ratios,
	// while artifacts and cache counters come from the first rep.
	var optTimes []time.Duration
	var optArt [][]byte
	var rwStats memo.Stats
	var rst workloads.ReplayCacheStats
	for r := 0; r < *overheadReps; r++ {
		gtpin.SetDefaultRewriteCache(gtpin.NewRewriteCache())
		replays := workloads.NewReplayCache()
		ns, art, err := sweep(ctx, units, workloads.PoolOptions{
			Workers: w, ReplayCache: replays,
		})
		if err != nil {
			return fmt.Errorf("optimized sweep (rep %d/%d): %w", r+1, *overheadReps, err)
		}
		optTimes = append(optTimes, ns)
		if r == 0 {
			optArt = art
			rwStats = gtpin.DefaultRewriteCache().Stats()
			rst = replays.Stats()
		}
	}
	optNs := median(optTimes)

	identical := len(baseArt) == len(optArt)
	for i := 0; identical && i < len(baseArt); i++ {
		identical = bytes.Equal(baseArt[i], optArt[i])
	}

	rep := report{
		Scale:         sc.Name,
		Trials:        *trials,
		Units:         len(units),
		Workers:       w,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		BaselineNs:    baseNs.Nanoseconds(),
		OptimizedNs:   optNs.Nanoseconds(),
		ByteIdentical: identical,
		OverheadReps:  *overheadReps,
	}
	rep.Speedup, err = speedup(baseNs, optNs)
	if err != nil {
		return err
	}
	rep.RewriteHits, rep.RewriteMisses = rwStats.Hits, rwStats.Misses
	rep.ReplayHits, rep.ReplayMisses = rst.Hits, rst.Misses
	rep.NativeHits, rep.NativeMisses = rst.NativeHits, rst.NativeMisses

	// Observed: the optimized configuration again, with the span tracer
	// installed — the run that proves observation changes neither the
	// artifact bytes nor (within -max-obs-overhead) the wall clock.
	// Same repetition discipline as the optimized sweep, so the gate
	// compares median to median.
	var obsTimes []time.Duration
	var obsArt [][]byte
	traceEvents := 0
	for r := 0; r < *overheadReps; r++ {
		gtpin.SetDefaultRewriteCache(gtpin.NewRewriteCache())
		prevTracer := obs.ActiveTracer()
		tracer := obs.NewTracer()
		obs.SetTracer(tracer)
		ns, art, err := sweep(ctx, units, workloads.PoolOptions{
			Workers: w, ReplayCache: workloads.NewReplayCache(),
		})
		obs.SetTracer(prevTracer)
		if err != nil {
			return fmt.Errorf("observed sweep (rep %d/%d): %w", r+1, *overheadReps, err)
		}
		obsTimes = append(obsTimes, ns)
		if r == 0 {
			obsArt = art
			traceEvents = tracer.Len()
		}
	}
	obsNs := median(obsTimes)
	obsIdentical := len(baseArt) == len(obsArt)
	for i := 0; obsIdentical && i < len(baseArt); i++ {
		obsIdentical = bytes.Equal(baseArt[i], obsArt[i])
	}
	rep.ObservedNs = obsNs.Nanoseconds()
	rep.ObsByteIdentical = obsIdentical
	rep.TraceEvents = traceEvents
	rep.ObsOverhead, err = speedup(obsNs, optNs)
	if err != nil {
		return err
	}

	// Detailed-interpreter throughput, gated against the -prior report.
	// The gate reads it before this run writes -out, so a rebaseline
	// that names one file for both still compares against the old value;
	// its verdict is returned after the other gates, as before.
	rep.DetsimMIPS, err = measureDetsim(*detsimReps)
	if err != nil {
		return err
	}
	prior, detsimErr := detsimGate(rep.DetsimMIPS)

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := runstate.WriteFileAtomic(*out, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("bench: %d units @ %s, %d workers: baseline %v, optimized %v (%.2fx), byte-identical=%v -> %s\n",
		rep.Units, rep.Scale, rep.Workers, baseNs.Round(time.Millisecond),
		optNs.Round(time.Millisecond), rep.Speedup, identical, *out)
	fmt.Printf("bench: observed (traced) %v, overhead %.3fx (medians of %d reps), %d trace events, byte-identical=%v\n",
		obsNs.Round(time.Millisecond), rep.ObsOverhead, *overheadReps, rep.TraceEvents, obsIdentical)
	fmt.Printf("bench: detailed interpreter %.1f MI/s (prior %.1f)\n", rep.DetsimMIPS, prior)

	if !identical {
		return fmt.Errorf("optimized sweep artifacts diverge from the serial baseline")
	}
	if !obsIdentical {
		return fmt.Errorf("observed (traced) sweep artifacts diverge from the serial baseline")
	}
	if rep.TraceEvents == 0 {
		return fmt.Errorf("observed sweep recorded no trace events; tracer not wired through the pipeline")
	}
	if *minSpeedup > 0 && rep.Speedup < *minSpeedup {
		return fmt.Errorf("speedup %.2fx below required %.2fx", rep.Speedup, *minSpeedup)
	}
	if *maxObsOverhead > 0 && rep.ObsOverhead > *maxObsOverhead {
		breach := fmt.Sprintf("observability overhead %.3fx above allowed %.3fx (medians of %d reps)",
			rep.ObsOverhead, *maxObsOverhead, *overheadReps)
		if !*obsOverheadWarn {
			return errors.New(breach)
		}
		fmt.Fprintln(os.Stderr, "bench: WARNING:", breach)
	}
	return detsimErr
}
