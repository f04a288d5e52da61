// Command benchmark measures the GT-Pin reproduction end to end on four
// workloads and, in a separate traced run, layer by layer. One run is
// one workload in one process:
//
//	benchmark --workload select --seed 1 --seconds 20 --trace 0
//
// It prints every metric as "name value unit", then, as its last line,
// one JSON object with the keys correct, attempted, failed and metrics.
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics, and the spans go to --spans. See
// README.md for the workloads, the metrics and how to compare runs.
//
// End-to-end times are process CPU time, not wall-clock time: on a
// shared virtual machine the hypervisor's steal time stretches wall-clock
// time by whatever the neighbours do, and CPU time leaves it out. They are
// then scaled to the reference machine's nominal speed by a reference
// workload timed in the same run (hostspeed.go).
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"gtpin/benchmark/result"
	"gtpin/internal/faults"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// workers is the pool, par and job-worker count every workload uses.
// One worker leaves the second CPU of a two-CPU machine to the Go
// runtime, the HTTP server and the load generator: on a shared 2-vCPU
// host, two busy workers made the same runs spread five times wider.
// With one worker, pool and par run each op inline on the calling
// goroutine, one after the other; locked to its OS thread, that
// goroutine's thread CPU time between two op boundaries is the op's.
const workers = 1

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// metrics with their directions and bounds; a test keeps the two equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "ops/cpu-s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics: times are mean self time per op, counts are per op.
var perLayer = []metricDef{
	// characterize
	{"cofluent.native_s", "s/op"},
	{"gtpin.replay_s", "s/op"},
	{"gtpin.rewrite_s", "s/op"},
	{"profile.join_s", "s/op"},
	{"engine.instructions", "count/op"},
	{"engine.dispatches", "count/op"},
	{"engine.host_ns_per_instr", "ns"},
	{"gtpin.rewrites", "count/op"},
	{"jit.cache_hit_ratio", "ratio"},
	{"workloads.replay_cache_hit_ratio", "ratio"},
	{"workloads.native_cache_hit_ratio", "ratio"},
	{"workloads.unit_p95_ms", "ms"},
	{"workloads.pool_idle_frac", "frac"},
	// select
	{"intervals.divide_s", "s/op"},
	{"features.extract_s", "s/op"},
	{"simpoint.run_s", "s/op"},
	{"selection.project_s", "s/op"},
	{"intervals.count", "count/op"},
	{"features.nonzeros", "count/op"},
	{"simpoint.selections", "count/op"},
	{"par.idle_frac", "frac"},
	{"selection.subset_error_pct", "%"},
	{"selection.subset_speedup_x", "x"},
	// design-sweep
	{"detsim.capture_s", "s/op"},
	{"detsim.snippet_replay_s", "s/op"},
	{"detsim.snippets", "count/op"},
	{"detsim.snippet_bytes", "bytes/op"},
	{"detsim.snippet_failures", "count/op"},
	{"detsim.full_run_s", "s/op"},
	{"detsim.detailed_instrs", "count/op"},
	{"detsim.mips", "MI/s"},
	{"detsim.compile_cache_hit_ratio", "ratio"},
	{"detsim.extrap_error_pct", "%"},
	{"cachesim.hit_ratio", "ratio"},
	{"cachesim.accesses", "count/op"},
	// service
	{"service.job_p50_ms", "ms"},
	{"service.job_p90_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.shed", "count"},
	{"service.queue_depth_max", "count"},
	{"runstate.journal_records", "count/op"},
	{"runstate.artifact_bytes", "bytes/op"},
	{"loadgen.lag_p95_ms", "ms"},
	{"loadgen.polls", "count/op"},
	// every workload
	{"trace.coverage", "frac"},
	{"trace.unexplained_frac", "frac"},
	{"trace.overhead", "ratio"},
	{"go.heap_peak_mb", "MB"},
}

// sizes are the workload dimensions. Tests shrink them; a result is only
// compared against the golden digests at the default sizes.
type sizes struct {
	Scale   workloads.Scale // profiling scale of the applications
	Apps    int             // applications used
	Designs int             // design-sweep designs per application
	Jobs    int             // service jobs per serial pass and per open loop
	Rate    float64         // service open-loop jobs per second
}

// defaultSizes are the benchmark's sizes. select and design-sweep run
// tiny profiles: at small scale one pass of either takes about half a
// minute on one worker, too long for several passes per run. Service
// jobs stay at small scale, so that the pipeline work in a job outweighs
// its fsyncs, whose CPU cost on a virtual disk follows the host's load.
func defaultSizes(workload string) sizes {
	s := sizes{Scale: workloads.ScaleSmall, Apps: len(workloads.All()), Designs: len(designs()), Jobs: 25, Rate: 3}
	switch workload {
	case "select":
		s.Scale = workloads.ScaleTiny
	case "design-sweep":
		s.Scale = workloads.ScaleTiny
		s.Apps = len(sweepSpecs())
	}
	return s
}

// config is one run's settings.
type config struct {
	Workload string
	Seed     int64
	Budget   time.Duration // measured time; a traced run splits it in two halves
	Trace    bool
	Dir      string // scratch space for service state directories
	Size     sizes
}

// pass is one repetition of a workload's fixed unit of work.
type pass struct {
	rate  float64   // ops per second of process CPU time
	cpuMs []float64 // CPU time of each op
}

// phase is what one measurement of a workload produced.
type phase struct {
	passes []pass
	ops    int
	wall   time.Duration // time the workers were available to the work
	layers []string      // span names whose self time counts toward coverage
	// perLayer holds the workload's own per-layer metrics (traced runs).
	perLayer map[string]result.Metric
	// exact holds values that must repeat exactly for a seed (any run).
	exact map[string]float64
}

// summary reduces the passes to the end-to-end numbers: the median pass
// rate, and the median and p90 of every op's CPU time pooled over the
// passes, with n the number of ops pooled. A run pools at least 100 ops
// at the default sizes, so at least ten lie beyond the p90.
func (p *phase) summary() (rate, p50, p90 float64, n int) {
	var pooled []float64
	for _, ps := range p.passes {
		pooled = append(pooled, ps.cpuMs...)
	}
	return p.medianRate(), result.Percentile(pooled, 50), result.Percentile(pooled, 90), len(pooled)
}

// medianRate is the median pass rate.
func (p *phase) medianRate() float64 {
	rates := make([]float64, len(p.passes))
	for i, ps := range p.passes {
		rates[i] = ps.rate
	}
	return result.Median(rates)
}

// workload is one benchmark workload.
type workload interface {
	// describe summarizes the sizes for the result stamp.
	describe() string
	// setup builds the inputs; the harness times each call.
	setup() error
	// measure runs for about budget; rec is nil for an untraced run.
	// It samples host between passes; host is nil for a traced run.
	measure(budget time.Duration, rec *recorder, host *hostSpeed) (*phase, error)
	// digest summarizes the outputs for the golden check.
	digest() string
}

var workloadNames = []string{"characterize", "select", "design-sweep", "service"}

func newWorkload(cfg config, t *tally, log io.Writer) (workload, error) {
	switch cfg.Workload {
	case "characterize":
		return &characterize{cfg: cfg, t: t, log: log}, nil
	case "select":
		return &selectWL{cfg: cfg, t: t, log: log}, nil
	case "design-sweep":
		return &designSweep{cfg: cfg, t: t, log: log}, nil
	case "service":
		return &serviceWL{cfg: cfg, t: t, log: log}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames, ", "))
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output mismatch")

// tally counts ops and classifies the failed ones.
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	classes    map[string]int
	mismatches []string
	errs       []string // the first failed ops that were not mismatches
}

func newTally() *tally {
	return &tally{classes: make(map[string]int)}
}

// op counts one attempted op; a non-nil err fails it.
func (t *tally) op(name string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	t.classes[classify(err)]++
	if errors.Is(err, errMismatch) {
		t.mismatches = append(t.mismatches, name+": "+err.Error())
	} else if len(t.errs) < maxLoggedErrors {
		t.errs = append(t.errs, name+": "+err.Error())
	}
}

// maxLoggedErrors bounds how many failed-op errors a run prints.
const maxLoggedErrors = 10

// classify names an error by the fault taxonomy sentinel it wraps.
func classify(err error) string {
	if errors.Is(err, errMismatch) {
		return errMismatch.Error()
	}
	if k := faults.Kind(err); k != "" {
		return k
	}
	return "unclassified " + faults.ClassOf(err).String()
}

//go:embed testdata/golden.json
var goldenJSON []byte

const goldenPath = "benchmark/testdata/golden.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs untraced then traced halves and reports the per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	out := fs.String("out", "", "also write the stamped result file here")
	update := fs.Bool("update-golden", false, "record this run's output digest as the golden one (seed 1, --trace 0)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *update && (*seed != 1 || *trace != 0) {
		fmt.Fprintln(stderr, "benchmark: --update-golden needs --seed 1 --trace 0")
		return 2
	}
	cfg := config{
		Workload: *wl, Seed: *seed, Budget: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Dir: filepath.Join(".bench_build", "tmp"), Size: defaultSizes(*wl),
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.Workload, cfg.Seed))
	}
	f, spanList, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if cfg.Trace {
		if err := writeSpans(*spans, cfg.Workload, cfg.Seed, spanList); err != nil {
			fmt.Fprintln(stderr, "benchmark: spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchmark: %d spans written to %s\n", len(spanList), *spans)
	}
	if *update {
		if err := updateGolden(cfg.Workload, f.Digests[cfg.Workload]); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(f, "", "  ")
		if err == nil {
			err = runstate.WriteFileAtomic(*out, append(data, '\n'))
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: result file:", err)
			return 1
		}
	}
	if err := printResult(stdout, f); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// execute sets up and measures one workload and returns its result and,
// for a traced run, its spans.
func execute(cfg config, log io.Writer) (*result.File, []span, error) {
	t := newTally()
	w, err := newWorkload(cfg, t, log)
	if err != nil {
		return nil, nil, err
	}
	if c, ok := w.(io.Closer); ok {
		defer c.Close()
	}
	// The reference runs before set-up, before each measured pass and
	// after the last. Traced runs report no end-to-end times and skip it.
	var host *hostSpeed
	if !cfg.Trace {
		host = new(hostSpeed)
	}
	host.sample()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := cpuTime()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
		// Collect each repetition's garbage before the next, so the
		// memory peak is one setup's, not an accident of GC timing.
		runtime.GC()
	}
	fmt.Fprintf(log, "benchmark: %s seed %d: setup %.3f CPU s (median of %d)\n", cfg.Workload, cfg.Seed, result.Median(setups), setupReps)

	f := &result.File{
		Schema:  result.Schema,
		Stamp:   stamp(cfg, w.describe()),
		Metrics: make(map[string]result.Metric),
		Digests: make(map[string]string),
	}
	var spans []span
	if !cfg.Trace {
		p, err := w.measure(cfg.Budget, nil, host)
		if err != nil {
			return nil, nil, err
		}
		host.sample()
		f.Exact = p.exact
		rate, p50, p90, n := p.summary()
		setup := result.Median(setups)
		rates := make([]string, len(p.passes))
		for i, ps := range p.passes {
			rates[i] = fmt.Sprintf("%.4g", ps.rate)
		}
		slow, k := host.slowness(), host.scale()
		fmt.Fprintf(log, "benchmark: %s seed %d: pass rates %s ops/cpu-s; host slowness %.4f, times scaled by %.4f\n",
			cfg.Workload, cfg.Seed, strings.Join(rates, " "), slow, k)
		measured := func(v float64, unit string) string { return fmt.Sprintf("; measured %.4g %s", v, unit) }
		f.Metrics["setup_s"] = result.Metric{Value: setup * k, Unit: "s", N: len(setups),
			Note: "process CPU time" + measured(setup, "s")}
		f.Metrics["ops_per_cpu_s"] = result.Metric{Value: rate / k, Unit: "ops/cpu-s", N: len(p.passes),
			Note: fmt.Sprintf("median of %d passes, %d ops%s", len(p.passes), p.ops, measured(rate, "ops/cpu-s"))}
		f.Metrics["op_cpu_p50_ms"] = result.Metric{Value: p50 * k, Unit: "ms", N: n, Note: "all passes' ops" + measured(p50, "ms")}
		f.Metrics["op_cpu_p90_ms"] = result.Metric{Value: p90 * k, Unit: "ms", N: n,
			Note: fmt.Sprintf("all passes' ops; highest percentile with 10 samples beyond it: p%d%s", result.TailPercentile(n), measured(p90, "ms"))}
		f.Metrics["peak_rss_mb"] = result.Metric{Value: peakRSSMB(), Unit: "MB"}
	} else {
		untraced, err := w.measure(cfg.Budget/2, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		rec := newRecorder()
		stopHeap := sampleHeap()
		traced, err := w.measure(cfg.Budget/2, rec, nil)
		heapMB := stopHeap()
		if err != nil {
			return nil, nil, err
		}
		spans = rec.snapshot()
		f.Exact = traced.exact
		for _, d := range perLayer {
			f.Metrics[d.name] = result.Metric{Unit: d.unit}
		}
		for k, m := range traced.perLayer {
			f.Metrics[k] = m
		}
		cov := coverage(selfTimes(spans), traced.layers, workers, traced.wall)
		f.Metrics["trace.coverage"] = result.Metric{Value: cov, Unit: "frac",
			Note: fmt.Sprintf("self time of %s over %d workers x %.3fs", strings.Join(traced.layers, ", "), workers, traced.wall.Seconds())}
		f.Metrics["trace.unexplained_frac"] = result.Metric{Value: 1 - cov, Unit: "frac", Note: "worker time no layer's self time explains"}
		f.Metrics["trace.overhead"] = result.Metric{Value: untraced.medianRate() / traced.medianRate(), Unit: "ratio",
			Note: fmt.Sprintf("median untraced ops/cpu-s %.4g over median traced ops/cpu-s %.4g", untraced.medianRate(), traced.medianRate())}
		f.Metrics["go.heap_peak_mb"] = result.Metric{Value: heapMB, Unit: "MB"}
	}

	d := w.digest()
	f.Digests[cfg.Workload] = d
	if cfg.Seed == 1 && cfg.Size == defaultSizes(cfg.Workload) {
		want, err := golden(cfg.Workload)
		if err != nil {
			return nil, nil, err
		}
		var mismatch error
		if want != d {
			mismatch = fmt.Errorf("%s outputs for seed 1 hash to %s, golden %q: %w", cfg.Workload, d, want, errMismatch)
		}
		t.op("golden digest", mismatch)
	}

	t.mu.Lock()
	f.Attempted, f.Failed = t.attempted, t.failed
	if len(t.classes) > 0 {
		f.Failures = t.classes
	}
	for _, m := range t.mismatches {
		fmt.Fprintln(log, "benchmark: MISMATCH", m)
	}
	for _, e := range t.errs {
		fmt.Fprintln(log, "benchmark: FAILED", e)
	}
	f.Correct = len(t.mismatches) == 0
	t.mu.Unlock()
	return f, spans, nil
}

// printResult writes every metric as "name value unit" and then the
// one-line JSON result.
func printResult(w io.Writer, f *result.File) error {
	names := make([]string, 0, len(f.Metrics))
	for k := range f.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{f.Correct, f.Attempted, f.Failed, make(map[string]plain, len(names))}
	for _, k := range names {
		m := f.Metrics[k]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			extra += " (" + m.Note + ")"
		}
		fmt.Fprintf(bw, "%s %v %s%s\n", k, m.Value, m.Unit, extra)
		line.Metrics[k] = plain{m.Value, m.Unit}
	}
	for class, n := range f.Failures {
		fmt.Fprintf(bw, "failed %d %s\n", n, class)
	}
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	bw.Write(data)
	bw.WriteByte('\n')
	return bw.Flush()
}

// golden returns the workload's golden digest for seed 1, "" if none.
func golden(workload string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden digests: %w", err)
	}
	return g[workload], nil
}

// updateGolden rewrites the golden file with this workload's digest.
// It runs from the repository root, where goldenPath is relative to.
func updateGolden(workload, digest string) error {
	g := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	g[workload] = digest
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return runstate.WriteFileAtomic(goldenPath, append(data, '\n'))
}

// stamp describes the machine, toolchain, commit and inputs of a run.
func stamp(cfg config, sizes string) result.Stamp {
	s := result.Stamp{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: int(cfg.Budget / time.Second),
		Trace: cfg.Trace, Sizes: sizes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified {
			s.Commit += "+modified"
		}
	}
	return s
}

// cpuModel reads the CPU model name; "unknown" where /proc is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the user and system CPU time every thread of the process
// has used. With paravirtual steal-time accounting, as on a KVM guest,
// it leaves out the time the host ran other guests on this guest's CPUs.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPUTime is the CPU time of the calling OS thread, on the same
// terms as cpuTime. Readings compare only while the calling goroutine is
// locked to its thread (runtime.LockOSThread).
func threadCPUTime() time.Duration { return cpuClock(clockThreadCPUTime) }

// Clocks of clock_gettime(2) that package syscall does not name. Unlike
// getrusage(RUSAGE_THREAD), which counts whole scheduler ticks, they
// read to the nanosecond.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sampleHeap samples the live heap every 20ms until the returned
// function is called, which stops the sampler and returns the peak in MB.
func sampleHeap() func() float64 {
	const name = "/memory/classes/heap/objects:bytes"
	s := []metrics.Sample{{Name: name}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, s[0].Value.Uint64())
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		read()
		return float64(peak) / (1 << 20)
	}
}
