// Package detsim is the detailed microarchitectural GPU simulator whose
// cost motivates the paper: it interprets kernels lane-by-lane with an
// in-order scoreboard pipeline model and a simulated cache hierarchy.
// Detailed simulation runs orders of magnitude slower than the fast
// functional path in gtpin/internal/device — which is exactly why the
// paper selects small representative subsets to simulate instead of full
// programs.
//
// The simulator consumes a CoFluent recording and a set of invocation
// ranges to simulate in detail; invocations outside the ranges are
// fast-forwarded functionally (the paper's step 6: "simulate this subset
// of program intervals in detail, while ignoring the remainder of the
// program by fast-forwarding"). Both paths produce identical
// architectural state, so a partial detailed simulation observes the
// same memory images a full one would.
package detsim

import (
	"fmt"
	"sort"

	"gtpin/internal/cachesim"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
)

// Config describes the simulated machine.
type Config struct {
	Device device.Config
	// Caches lists cache levels nearest-first; when empty, the HD 4000
	// L3+LLC pair is used.
	Caches []cachesim.Config
	// WatchdogInstrs is the per-enqueue dynamic-instruction budget,
	// surfaced as faults.ErrWatchdogTimeout when exceeded — the same
	// engine accounting the functional device uses, so a budget trips at
	// the same dynamic instruction on both backends. 0 disables the
	// budget, leaving only the engine's per-group runaway backstop.
	WatchdogInstrs uint64
}

// pipelineDepth is the in-order pipeline's result latency in cycles for
// single-cycle ops (dependent instructions stall on it).
const pipelineDepth = 4

// DefaultConfig returns a detailed model of the paper's HD 4000 system.
func DefaultConfig() Config {
	return Config{
		Device: device.IvyBridgeHD4000(),
		Caches: []cachesim.Config{cachesim.HD4000L3(), cachesim.HD4000LLC()},
	}
}

// Range selects invocations [From, To) by invocation sequence number for
// detailed simulation.
//
// SampleGroups enables the intra-kernel sampling extension the paper's
// related-work section points at (TBPoint, Huang et al.): when N > 1,
// only every N-th channel-group of a detailed invocation is modelled at
// cycle level — the rest execute functionally, preserving architectural
// state — and the detailed time is extrapolated by N. This composes the
// paper's whole-invocation skipping with partial-kernel simulation; the
// trade-off is cache warm-up distortion, since unsampled groups do not
// touch the simulated caches.
type Range struct {
	From, To     int
	SampleGroups int // 0 or 1 = model every group

	// Warmup asks for the W invocations preceding From to run in
	// cache-warming mode: functional execution that touches the simulated
	// caches without contributing timing — the PinPoints practice of
	// warming microarchitectural state before a simulation region so the
	// region does not start against cold caches.
	Warmup int
}

// Report summarizes a simulation.
type Report struct {
	Detailed      int // invocations simulated in detail
	FastForwarded int // invocations executed functionally only
	Warmed        int // invocations run in cache-warming mode

	DetailedInstrs uint64 // dynamic instructions simulated in detail
	DetailedCycles uint64 // summed per-thread pipeline cycles
	DetailedTimeNs float64
	LaneOps        uint64 // per-lane operations evaluated (simulation work)

	FastForwardTimeNs float64 // modelled time of fast-forwarded work

	// WarmupTimeNs is the modelled time of warmup invocations. They
	// execute through the same fast-forward device as plain functional
	// invocations — on real hardware the warmup prefix runs like any
	// other work — so FastForwardTimeNs + WarmupTimeNs is conserved no
	// matter how much of the fast-forwarded region a Warmup window
	// relabels.
	WarmupTimeNs float64

	Cache       []cachesim.Stats
	MemAccesses uint64 // accesses missing all cache levels

	// Ranges reports per-range detailed results, aligned with the ranges
	// passed to Run (after sorting by From) — what subset extrapolation
	// consumes.
	Ranges []RangeReport
}

// RangeReport is the detailed-simulation result of one invocation range.
type RangeReport struct {
	Range          Range
	Invocations    int
	DetailedInstrs uint64
	DetailedTimeNs float64
}

// Simulator runs recordings under the detailed model. It composes the
// shared execution engine (gtpin/internal/engine) with the cycle-level
// timing model: the engine interprets the ISA, this package supplies
// the scoreboard depth, cache hierarchy, sampling, and warmup policy.
type Simulator struct {
	cfg    Config
	caches *cachesim.Hierarchy

	// buffers holds the last run's memory state, for tests that compare
	// architectural results against the functional device.
	buffers map[int]*device.Buffer

	// eng is the shared execution engine (interpreter scratch, watchdog
	// accounting, hooks); det is its cycle-level extension (scoreboard,
	// cache model).
	eng engine.Env
	det engine.Detailed

	probe *engine.Probe // attached analysis probe, or nil

	// timerHook, when set, overrides the live cycle counters as the value
	// source for MsgTimer sends across every execution mode.
	timerHook func(uint64) uint32
}

// New creates a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Device.Validate(); err != nil {
		return nil, fmt.Errorf("detsim: %w", err)
	}
	caches := cfg.Caches
	if len(caches) == 0 {
		caches = []cachesim.Config{cachesim.HD4000L3(), cachesim.HD4000LLC()}
	}
	h, err := cachesim.NewHierarchy(cfg.Device.MemLatencyNs, caches...)
	if err != nil {
		return nil, fmt.Errorf("detsim: %w", err)
	}
	cfg.Caches = caches
	s := &Simulator{cfg: cfg, caches: h}
	s.det.Depth = pipelineDepth
	s.det.Caches = h
	return s, nil
}

// SetProbe attaches an engine analysis probe observing every detailed or
// warmup invocation's dynamic basic-block entries; nil detaches. The
// probe is also attached to the inner fast-forward device, so a full
// replay yields complete block counts regardless of range selection.
// Pure observation: probes never alter execution, timing, or statistics.
func (s *Simulator) SetProbe(p *engine.Probe) { s.probe = p }

// SetTimerHook overrides the value MsgTimer sends read, across every
// execution mode — detailed, fast-forward, and warmup — with one
// deterministic function; nil restores the live cycle counters. Tests
// install the same hook on a recording device and on every replaying
// backend, so timer-reading kernels produce identical memory images
// everywhere despite the backends' different notions of time.
func (s *Simulator) SetTimerHook(h func(uint64) uint32) { s.timerHook = h }

// validateRanges rejects malformed or ambiguous sampling plans on a
// From-sorted range list: empty or negative ranges, overlapping
// detailed ranges (the old linear scan silently resolved overlaps
// first-match-wins), and warmup windows reaching back across an
// earlier detailed range (which would silently re-run already-detailed
// invocations in warmup mode). A warmup window larger than the
// preceding program is fine — it clamps at invocation 0.
func validateRanges(ranges []Range) error {
	for i, r := range ranges {
		if r.From < 0 {
			return fmt.Errorf("detsim: range [%d, %d) has negative start: %w", r.From, r.To, faults.ErrBadConfig)
		}
		if r.To <= r.From {
			return fmt.Errorf("detsim: range [%d, %d) is empty: %w", r.From, r.To, faults.ErrBadConfig)
		}
		if r.Warmup < 0 {
			return fmt.Errorf("detsim: range [%d, %d) has negative warmup %d: %w", r.From, r.To, r.Warmup, faults.ErrBadConfig)
		}
		if r.SampleGroups < 0 {
			return fmt.Errorf("detsim: range [%d, %d) has negative sample-groups %d: %w", r.From, r.To, r.SampleGroups, faults.ErrBadConfig)
		}
		if i == 0 {
			continue
		}
		prev := ranges[i-1]
		if r.From < prev.To {
			return fmt.Errorf("detsim: ranges [%d, %d) and [%d, %d) overlap: %w",
				prev.From, prev.To, r.From, r.To, faults.ErrBadConfig)
		}
		if r.Warmup > 0 && r.From-r.Warmup < prev.To {
			return fmt.Errorf("detsim: warmup window [%d, %d) of range [%d, %d) crosses detailed range [%d, %d): %w",
				r.From-r.Warmup, r.From, r.From, r.To, prev.From, prev.To, faults.ErrBadConfig)
		}
	}
	return nil
}

// Run replays the recording, simulating invocations inside the detailed
// ranges with the cycle-level model and fast-forwarding the rest.
// Warmup invocations execute through the fast-forward device (so their
// modelled time lands in WarmupTimeNs and the device clock advances as
// it would without warmup) with the cache-touch hook installed.
func (s *Simulator) Run(rec *cofluent.Recording, detailed []Range) (*Report, error) {
	ranges := append([]Range(nil), detailed...)
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].From < ranges[j].From })
	if err := validateRanges(ranges); err != nil {
		return nil, err
	}
	rp, err := s.newReplay(ranges, 0, 0)
	if err != nil {
		return nil, err
	}
	buffers := make(map[int]*device.Buffer)
	s.buffers = buffers

	err = walkRecording(rec, buffers, walkHooks{onLaunch: func(l *launch) error {
		// Sorted, validated ranges and their warmup windows are all
		// disjoint, so the first match is the only match.
		seq := l.Invocation
		for i, r := range ranges {
			if seq >= r.From && seq < r.To {
				return rp.launch(l, i, false)
			}
			if r.Warmup > 0 && seq >= r.From-r.Warmup && seq < r.From {
				return rp.launch(l, -1, true)
			}
		}
		return rp.launch(l, -1, false)
	}})
	if err != nil {
		return nil, err
	}
	return rp.finish(), nil
}

// replay is the launch path Run and RunSnippet share: it runs each
// invocation and books it in the report.
type replay struct {
	s       *Simulator
	dev     *device.Device
	rep     *Report
	dialect isa.Dialect                     // of the kernels run in detail
	touch   func(keys []uint64, write bool) // s.touchCache, bound once
}

// newReplay empties the caches and starts a replay with one range
// report per range. Its fast-forward device starts at the given clock
// with the simulator's watchdog budget, probe and timer hook, which the
// detailed loop uses too.
func (s *Simulator) newReplay(ranges []Range, cycles, dispatches uint64) (*replay, error) {
	dev, err := device.New(s.cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("detsim: %w", err)
	}
	dev.SetWatchdog(s.cfg.WatchdogInstrs)
	dev.SetProbe(s.probe)
	dev.SetTimerHook(s.timerHook)
	dev.SeedClock(cycles, dispatches)
	s.caches.Reset()
	rep := &Report{Ranges: make([]RangeReport, len(ranges))}
	for i, r := range ranges {
		rep.Ranges[i].Range = r
	}
	return &replay{s: s, dev: dev, rep: rep, touch: s.touchCache}, nil
}

// launch runs one invocation: in detail, booked in range report ri,
// when ri >= 0, and otherwise on the fast-forward device, warming the
// caches when warm.
func (r *replay) launch(l *launch, ri int, warm bool) error {
	rep := r.rep
	if ri >= 0 {
		rr := &rep.Ranges[ri]
		beforeT, beforeI := rep.DetailedTimeNs, rep.DetailedInstrs
		if err := r.s.runDetailed(l.Kernel, l.Args, l.Surfaces, l.GWS, rr.Range.SampleGroups, rep); err != nil {
			return fmt.Errorf("detsim: invocation %d (%s): %w", l.Invocation, l.Kernel.Name, err)
		}
		rr.Invocations++
		rr.DetailedTimeNs += rep.DetailedTimeNs - beforeT
		rr.DetailedInstrs += rep.DetailedInstrs - beforeI
		rep.Detailed++
		r.dialect = l.Kernel.Dialect
		return nil
	}
	if warm {
		r.dev.SetTouchHook(r.touch)
	}
	st, err := r.dev.Run(device.Dispatch{
		Binary: l.Bin, Args: l.Args, Surfaces: l.Surfaces, GlobalWorkSize: l.GWS,
	})
	if warm {
		r.dev.SetTouchHook(nil)
		if err != nil {
			return fmt.Errorf("detsim: warmup invocation %d: %w", l.Invocation, err)
		}
		rep.WarmupTimeNs += st.TimeNs
		rep.Warmed++
		return nil
	}
	if err != nil {
		return fmt.Errorf("detsim: fast-forward invocation %d: %w", l.Invocation, err)
	}
	rep.FastForwardTimeNs += st.TimeNs
	rep.FastForwarded++
	return nil
}

// finish books the caches' statistics and publishes the metrics;
// recordings and snippets are single-dialect, so r.dialect covers all.
func (r *replay) finish() *Report {
	for _, c := range r.s.caches.Levels() {
		r.rep.Cache = append(r.rep.Cache, c.Stats())
	}
	r.rep.MemAccesses = r.s.caches.MemAccesses
	observeReport(r.rep, r.dialect)
	return r.rep
}

// Buffer returns the last run's buffer with the given recording ID, or
// nil. Tests use it to compare architectural state against the
// functional device.
func (s *Simulator) Buffer(id int) *device.Buffer { return s.buffers[id] }
