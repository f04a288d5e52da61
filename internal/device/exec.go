package device

import (
	"fmt"

	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
)

// Dispatch describes one kernel invocation: the compiled binary, scalar
// arguments, bound surfaces, and the global work size (total work-items).
type Dispatch struct {
	Binary   *jit.Binary
	Args     []uint32
	Surfaces []*Buffer
	// GlobalWorkSize is the total number of work-items; the device runs
	// ceil(GlobalWorkSize/SIMD) channel-groups.
	GlobalWorkSize int
}

// ExecStats reports what one dispatch did, measured directly by the
// device (the "ground truth" that GT-Pin's instrumentation-derived
// profiles are validated against in tests). Counts include any injected
// instrumentation instructions, since the device has no notion of which
// instructions are original.
type ExecStats struct {
	Groups        int     // channel-groups executed
	Instrs        uint64  // dynamic instructions executed
	Sends         uint64  // send instructions executed
	BytesRead     uint64  // bytes read from surfaces
	BytesWritten  uint64  // bytes written to surfaces
	ComputeCycles uint64  // summed per-thread execution cycles
	TimeNs        float64 // modelled wall-clock time of the dispatch

	// Resilience bookkeeping, filled by the cl layer's resilient drain.
	// Both stay zero-valued on the fault-free path, so profiles from
	// injection-free runs are unchanged.
	Attempts int  // execution attempts consumed (0 or 1 = no retries)
	Degraded bool // final attempt ran on the degraded fallback config
}

// Device is one GPU instance: the shared execution engine composed with
// the analytic timing model (timing.go) and the device's queue
// semantics. All ISA interpretation happens in internal/engine; the
// device contributes validation, fault-injection policy, and timing.
// It runs each binary's shared decoded kernel (jit.Binary.Kernel) and
// owns the engine's interpreter scratch; it is not safe for concurrent
// use, matching a single in-order command queue.
type Device struct {
	cfg        Config
	cycles     uint64 // device timestamp counter, advanced per dispatch
	dispatches uint64 // dispatches completed, drives thermal drift
	jitter     *TimingJitter

	// Observability bookkeeping (metrics.go). id distinguishes trace
	// lanes between concurrent workers' devices; virtNs accumulates
	// modeled time so dispatch spans line up on a virtual timeline.
	// Neither feeds back into the timing model.
	id     uint64
	virtNs float64

	// watchdog is the per-enqueue dynamic-instruction budget; 0 keeps
	// only the per-group runaway backstop.
	watchdog uint64
	inj      *faults.Injector
	curInv   *faults.Invocation // fault plan of the dispatch in flight

	probe *engine.Probe // attached analysis probe, or nil

	// eng is the shared execution engine: interpreter scratch state,
	// watchdog accounting, and the device's hooks (timer, memory stall
	// charge, and send faults while a dispatch with a fault plan runs).
	eng engine.Env
}

// New creates a device with the given configuration.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg: cfg,
		id:  deviceIDs.Add(1) - 1,
	}
	d.eng.MemStallCycles = cfg.MemStallCycles()
	d.eng.Timer = func(groupCycles uint64) uint32 { return uint32(d.cycles + groupCycles) }
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Timestamp returns the device cycle counter, advanced as dispatches
// complete. The MsgTimer send reads this during execution.
func (d *Device) Timestamp() uint64 { return d.cycles }

// SetWatchdog installs a per-enqueue watchdog: any dispatch whose dynamic
// instruction count exceeds budget fails with faults.ErrWatchdogTimeout.
// A zero budget disables the watchdog, leaving only the per-group
// runaway-loop backstop.
func (d *Device) SetWatchdog(budget uint64) { d.watchdog = budget }

// WatchdogBudget returns the installed per-enqueue instruction budget
// (0 = disabled).
func (d *Device) WatchdogBudget() uint64 { return d.watchdog }

// SetFaultInjector installs a fault injector consulted on every dispatch;
// nil disables injection. The injector's draw counts advance per
// execution attempt, so it must not be shared across concurrently-running
// devices.
func (d *Device) SetFaultInjector(inj *faults.Injector) { d.inj = inj }

// FaultInjector returns the installed injector, or nil.
func (d *Device) FaultInjector() *faults.Injector { return d.inj }

// Jitter returns the installed timing jitter source, or nil.
func (d *Device) Jitter() *TimingJitter { return d.jitter }

// SetProbe attaches an engine analysis probe observing every dispatch's
// dynamic basic-block entries; nil detaches. Pure observation: probes
// never alter execution, timing, or statistics.
func (d *Device) SetProbe(p *engine.Probe) { d.probe = p }

// SetTouchHook installs an observer called once per data send with the
// engine's surface<<32|addr key of every accessed lane, in lane order,
// and the message's write flag; nil detaches. keys is engine scratch,
// valid only during the call. Pure observation — detsim uses it to warm
// its simulated caches from fast-forwarded work and to record the touch
// sets snippet checkpoints are trimmed by; execution, timing, and
// statistics are unchanged.
func (d *Device) SetTouchHook(h func(keys []uint64, write bool)) { d.eng.Touch = h }

// SeedClock positions the device's timestamp counter and completed-
// dispatch count as if a prefix of work had already executed. Snippet
// replay (gtpin/internal/detsim) seeds a fresh device with the values
// captured at its window's start, so MsgTimer reads and the
// thermal-drift phase match a replay that actually fast-forwarded the
// prefix.
func (d *Device) SeedClock(cycles, dispatches uint64) {
	d.cycles = cycles
	d.dispatches = dispatches
}

// Dispatches returns the number of dispatches completed, the counter
// that drives thermal drift.
func (d *Device) Dispatches() uint64 { return d.dispatches }

// SetTimerHook overrides the value MsgTimer sends read with a
// deterministic function; nil restores the default live device cycle
// counter. Cross-backend tests install the same hook everywhere so
// timer-reading kernels produce identical memory images on every
// backend.
func (d *Device) SetTimerHook(h func(uint64) uint32) {
	if h != nil {
		d.eng.Timer = h
		return
	}
	d.eng.Timer = func(groupCycles uint64) uint32 { return uint32(d.cycles + groupCycles) }
}

// budget returns the effective per-enqueue instruction budget.
func (d *Device) budget() uint64 {
	if d.watchdog > 0 {
		return d.watchdog
	}
	return engine.MaxGroupInstrs
}

// fill copies the engine's accumulated counters into the dispatch stats.
func (st *ExecStats) fill(es *engine.Stats) {
	st.Instrs = es.Instrs
	st.Sends = es.Sends
	st.BytesRead = es.BytesRead
	st.BytesWritten = es.BytesWritten
	st.ComputeCycles = es.Cycles
}

// Run executes one dispatch to completion and returns its statistics.
func (d *Device) Run(disp Dispatch) (ExecStats, error) {
	var st ExecStats
	if disp.Binary == nil {
		return st, fmt.Errorf("device: dispatch has no binary: %w", faults.ErrInvalidDispatch)
	}
	k, err := disp.Binary.Kernel()
	if err != nil {
		return st, fmt.Errorf("device: %w", err)
	}
	if disp.GlobalWorkSize <= 0 {
		return st, fmt.Errorf("device: kernel %s: global work size %d: %w", k.Name, disp.GlobalWorkSize, faults.ErrInvalidDispatch)
	}
	if len(disp.Args) < k.NumArgs {
		return st, fmt.Errorf("device: kernel %s: %d args supplied, %d required: %w", k.Name, len(disp.Args), k.NumArgs, faults.ErrInvalidDispatch)
	}
	if len(disp.Surfaces) < k.NumSurfaces {
		return st, fmt.Errorf("device: kernel %s: %d surfaces bound, %d required: %w", k.Name, len(disp.Surfaces), k.NumSurfaces, faults.ErrInvalidDispatch)
	}
	for i, s := range disp.Surfaces {
		if s == nil {
			return st, fmt.Errorf("device: kernel %s: surface %d is nil: %w", k.Name, i, faults.ErrInvalidDispatch)
		}
	}

	d.curInv = d.inj.BeginInvocation(k.Name, 0)
	defer func() { d.curInv = nil }()
	if d.curInv.Hang() {
		// The kernel stops making forward progress; the watchdog detects
		// the hang once the enqueue's instruction budget is consumed.
		err := fmt.Errorf("device: kernel %s: %w: no forward progress after %d instructions: %w",
			k.Name, faults.ErrWatchdogTimeout, d.budget(), faults.ErrKernelHang)
		observeRunError(err)
		return st, err
	}

	d.eng.Watchdog.Reset(d.watchdog)
	// Only a dispatch with a fault plan can lose a send, so only such a
	// dispatch pays the hook's call on every send.
	if d.curInv != nil {
		d.eng.SendFault = d.curInv.SendFault
	} else {
		d.eng.SendFault = nil
	}
	if d.probe != nil {
		d.eng.OnBlock = d.probe.Profile(k).CountBlock
	} else {
		d.eng.OnBlock = nil
	}

	var es engine.Stats
	width := int(k.SIMD)
	groups := (disp.GlobalWorkSize + width - 1) / width
	for g := 0; g < groups; g++ {
		active := disp.GlobalWorkSize - g*width
		if active > width {
			active = width
		}
		if err := d.eng.RunGroup(k, disp.Args, disp.Surfaces, g, active, &es); err != nil {
			st.fill(&es)
			err = fmt.Errorf("device: kernel %s group %d: %w", k.Name, g, err)
			observeRunError(err)
			return st, err
		}
	}
	st.fill(&es)
	if d.curInv.CorruptResult() {
		// Integrity checking rejects the dispatch; its side effects are
		// untrustworthy and the caller must replay from a clean snapshot.
		return st, fmt.Errorf("device: kernel %s: %w", k.Name, faults.ErrCorruptResult)
	}
	st.Groups = groups
	st.TimeNs = d.jitter.Perturb(d.cfg.dispatchTimeNs(&st) * d.cfg.thermalDrift(d.dispatches))
	d.dispatches++
	d.cycles += uint64(st.TimeNs * d.cfg.freqGHz())
	d.observeDispatch(k, &st)
	return st, nil
}
