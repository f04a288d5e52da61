// Package obs is the observability layer of the modeled GPU stack: a
// process-wide metrics registry (counters, gauges, histograms) and a
// virtual-time-aware span tracer, with three export paths —
//
//   - Prometheus text exposition plus pprof/expvar on an optional debug
//     HTTP listener (http.go), for watching long sweeps live;
//   - a deterministic per-sweep metrics.json artifact (Snapshot/
//     MarshalJSON), written through runstate's atomic writer by the
//     harness glue in obs/obsflag;
//   - a Chrome trace-event JSON file (trace.go) whose per-EU and
//     per-queue lanes make modeled kernel timelines loadable in
//     chrome://tracing, in the spirit of Daisen's GPU timeline views.
//
// Design constraints, in order:
//
//  1. Correct under -race: every mutable datum is atomic or mutex-held.
//  2. Allocation-light on the hot path: instrumented packages resolve
//     their metric pointers once, at package init, so recording is a
//     single atomic add with no map lookups and no allocation. Metrics
//     are instrumented at dispatch/unit granularity, never per
//     interpreted instruction.
//  3. Pure observation: nothing in this package (or any call site) may
//     perturb modeled state, timing jitter draws, or artifact bytes.
//     Sweep artifacts are byte-identical with observability on or off.
//
// The package deliberately imports nothing from the rest of the module,
// so every internal package may instrument itself without cycles.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n, which may be negative.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). Bucket 0 counts zero. 64 buckets cover all of uint64.
const histBuckets = 65

// Histogram records a distribution of uint64 observations (typically
// nanoseconds or bytes) in power-of-two buckets. Observations are two
// atomic adds plus a bit-length — no floating point, no allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// HistogramBucket is one exported bucket: N observations at most Le.
type HistogramBucket struct {
	Le uint64 `json:"le"` // inclusive upper bound (2^i - 1)
	N  uint64 `json:"n"`  // observations in this bucket (non-cumulative)
}

// HistogramSnapshot is a point-in-time histogram export. Buckets are
// non-cumulative and only non-empty buckets appear, in ascending order.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			if i >= 64 {
				le = ^uint64(0)
			} else {
				le = uint64(1)<<i - 1
			}
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, N: n})
	}
	return s
}

// Registry is a named collection of metrics. Registration (the
// NewCounter family) takes a lock and is meant for package init;
// recording through the returned pointers is lock-free.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order, for stable iteration
	metrs map[string]metric
}

type metric struct {
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrs: make(map[string]metric)}
}

// NewCounter registers (or returns the existing) counter under name.
// Re-registering a name as a different metric kind panics: it is a
// programming error two packages must not be allowed to hide.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrs[name]; ok {
		if m.c == nil {
			panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
		}
		return m.c
	}
	c := &Counter{}
	r.metrs[name] = metric{help: help, c: c}
	r.names = append(r.names, name)
	return c
}

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrs[name]; ok {
		if m.g == nil {
			panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
		}
		return m.g
	}
	g := &Gauge{}
	r.metrs[name] = metric{help: help, g: g}
	r.names = append(r.names, name)
	return g
}

// NewHistogram registers (or returns the existing) histogram under name.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrs[name]; ok {
		if m.h == nil {
			panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
		}
		return m.h
	}
	h := &Histogram{}
	r.metrs[name] = metric{help: help, h: h}
	r.names = append(r.names, name)
	return h
}

// MetricsSchema identifies the metrics.json artifact format; bump it
// when the shape of Snapshot changes.
const MetricsSchema = "gtpin-metrics/1"

// Snapshot is a deterministic point-in-time export of a registry:
// map keys marshal sorted, so the same counter values always produce
// the same bytes — the property that lets tests and CI diff artifacts.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Schema:     MetricsSchema,
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, m := range r.metrs {
		switch {
		case m.c != nil:
			s.Counters[name] = m.c.Load()
		case m.g != nil:
			s.Gauges[name] = m.g.Load()
		case m.h != nil:
			s.Histograms[name] = m.h.snapshot()
		}
	}
	return s
}

// each visits metrics in sorted-name order (the Prometheus exposition
// order).
func (r *Registry) each(f func(name, help string, m metric)) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	metrs := make(map[string]metric, len(r.metrs))
	for k, v := range r.metrs {
		metrs[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		f(n, metrs[n].help, metrs[n])
	}
}

// defaultRegistry is the process-wide registry every instrumented
// package records into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// DefaultCounter registers a counter on the process-wide registry —
// the one-liner instrumented packages use in var blocks.
func DefaultCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// DefaultGauge registers a gauge on the process-wide registry.
func DefaultGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// DefaultHistogram registers a histogram on the process-wide registry.
func DefaultHistogram(name, help string) *Histogram {
	return defaultRegistry.NewHistogram(name, help)
}
