package workloads

import (
	"fmt"
	"time"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
	"gtpin/internal/isa"
	"gtpin/internal/memo"
	"gtpin/internal/obs"
	"gtpin/internal/profile"
	"gtpin/internal/xlate"
)

// JitterSigma is the relative timing noise applied to timed runs,
// standing in for run-to-run variation on real hardware.
const JitterSigma = 0.02

// Result bundles everything one application's profiling pipeline
// produces: the CoFluent recording and timings of the native (plain) run,
// and the GT-Pin profile from the instrumented replay.
type Result struct {
	App       *App
	Recording *cofluent.Recording
	Tracer    *cofluent.Tracer // from the uninstrumented timed run
	GTPin     *gtpin.GTPin
	Profile   *profile.Profile

	// FaultStats counts the faults injected across both pipeline phases
	// when the run was configured with FaultOptions; all survived faults
	// were absorbed by retry or degradation (a surfaced fault fails the
	// run instead).
	FaultStats faults.Stats
}

// FaultOptions enables chaos-mode profiling: deterministic fault
// injection at the given rates and an optional per-enqueue watchdog
// budget. Each pipeline phase (native run, instrumented replay) draws
// from its own injector, seeded from Seed and the application name, so
// parallel sweeps stay reproducible. Every field is part of the unit's
// Key and of its wire form.
type FaultOptions struct {
	Rates faults.Rates `json:"rates"`
	Seed  int64        `json:"seed"`
	// Watchdog is the per-enqueue instruction budget (0 = disabled),
	// metered by the shared engine accounting — the same budget trips at
	// the same dynamic instruction under detsim (see docs/architecture.md).
	Watchdog uint64 `json:"watchdog"`
}

// Arm configures one phase's device for fault injection under this
// fault model — for the packaged pipeline and for harnesses that drive
// the pipeline phases manually (cmd/overhead). A nil receiver arms
// nothing and returns a nil injector.
func (fo *FaultOptions) Arm(dev *device.Device, app, phase string) (*faults.Injector, error) {
	if fo == nil {
		return nil, nil
	}
	var inj *faults.Injector
	if !fo.Rates.Zero() {
		var err error
		inj, err = faults.NewInjector(faults.DeriveSeed(fo.Seed, app+"/"+phase), fo.Rates)
		if err != nil {
			return nil, err
		}
		dev.SetFaultInjector(inj)
	}
	dev.SetWatchdog(fo.Watchdog)
	return inj, nil
}

// Run executes the paper's profiling pipeline for one benchmark:
//
//  1. Run the application natively with the CoFluent tracer attached,
//     producing the API-call record, per-kernel timings (with the trial's
//     timing jitter), and a replayable recording.
//  2. Replay the recording with GT-Pin attached, collecting
//     per-invocation dynamic profiles from the instrumented binaries.
//  3. Join GT-Pin's counts with CoFluent's (uninstrumented) timings into
//     a profile for the selection pipeline.
//
// trialSeed seeds the timing jitter; different seeds model different
// trials on the same machine.
func Run(spec *Spec, sc Scale, cfg device.Config, trialSeed int64) (*Result, error) {
	return runPipeline(Unit{Spec: spec, Scale: sc, Cfg: cfg, TrialSeed: trialSeed}, nil)
}

// runPipeline is the pipeline with an optional replay cache: when rc is
// non-nil, the instrumented-replay phase is satisfied from the cache
// for every unit after the first that shares this (app, scale, device,
// fault model, ISA) configuration — see ReplayCache for why that is
// exact.
func runPipeline(u Unit, rc *ReplayCache) (*Result, error) {
	spec, fo := u.Spec, u.Faults
	tracer := obs.ActiveTracer()
	var phaseStart time.Time
	if tracer != nil {
		phaseStart = time.Now()
	}

	// Step 1: native timed run under CoFluent. jitter == nil records the
	// unjittered base times for the memoized path.
	native := func(jitter *device.TimingJitter) (*App, *cofluent.Recording, *cofluent.Tracer, *faults.Injector, error) {
		dev, err := device.New(u.Cfg)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		dev.SetJitter(jitter)
		natInj, err := fo.Arm(dev, spec.Name, "native")
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		app, rec, tr, err := u.record(dev)
		return app, rec, tr, natInj, err
	}

	var (
		app    *App
		rec    *cofluent.Recording
		tr     *cofluent.Tracer
		natInj *faults.Injector
	)
	if rc != nil && fo == nil {
		// Memoized native phase: trial seeds perturb only the reported
		// timings (workloads never read the device timestamp), so one
		// unjittered execution serves every trial and this trial's times
		// are synthesized from it — bit-identically to a live jittered
		// run, which TestPoolReplayCacheByteIdentical enforces. Fault
		// models stay on the live path: their retries consume jitter
		// draws the tracer never sees.
		e, _, err := rc.natives.Do(replayKey(u, nil), func() (*nativeEntry, error) {
			app, rec, base, _, err := native(nil)
			if err != nil {
				return nil, err
			}
			return &nativeEntry{app: app, rec: rec, tracer: base}, nil
		})
		if err != nil {
			return nil, err
		}
		app, rec = e.app, e.rec
		tr = e.tracer.PerturbTimes(device.NewTimingJitter(u.TrialSeed, JitterSigma))
	} else {
		var err error
		app, rec, tr, natInj, err = native(device.NewTimingJitter(u.TrialSeed, JitterSigma))
		if err != nil {
			return nil, err
		}
	}

	if tracer != nil {
		tracer.SpanWall("pipeline", "native "+spec.Name, "pipeline", phaseStart)
		phaseStart = time.Now()
	}

	// Step 2: instrumented replay under GT-Pin. The replay device never
	// gets the trial's timing jitter, so the phase is trial-independent
	// and memoizable.
	replay := func() (replayEntry, error) {
		idev, err := device.New(u.Cfg)
		if err != nil {
			return replayEntry{}, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		repInj, err := fo.Arm(idev, spec.Name, "replay")
		if err != nil {
			return replayEntry{}, fmt.Errorf("workloads: %s: %w", spec.Name, err)
		}
		var g *gtpin.GTPin
		_, err = rec.Replay(idev, func(rctx *cl.Context) error {
			var aerr error
			g, aerr = gtpin.Attach(rctx, gtpin.Options{})
			return aerr
		})
		// The replay has run every kernel it will, and the profile reads
		// only what GT-Pin collected: hand the trace buffer back, so
		// cached replays do not each keep one.
		if g != nil {
			g.Detach()
		}
		if err != nil {
			return replayEntry{}, fmt.Errorf("workloads: instrumented replay of %s: %w", spec.Name, err)
		}
		return replayEntry{g: g, stats: repInj.Stats()}, nil
	}
	var replays *memo.Memo[replayEntry] // nil: replay from scratch
	if rc != nil {
		replays = rc.replays
	}
	r, _, err := replays.Do(replayKey(u, fo), replay)
	if err != nil {
		return nil, err
	}
	g, rst := r.g, r.stats
	if tracer != nil {
		tracer.SpanWall("pipeline", "replay "+spec.Name, "pipeline", phaseStart)
	}

	// Step 3: join counts and timings.
	p, err := profile.Build(spec.Name, g, tr.TimesNs())
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", spec.Name, err)
	}
	st := natInj.Stats()
	st.Hangs += rst.Hangs
	st.SendFaults += rst.SendFaults
	st.JITFaults += rst.JITFaults
	st.Corruptions += rst.Corruptions
	return &Result{App: app, Recording: rec, Tracer: tr, GTPin: g, Profile: p, FaultStats: st}, nil
}

// Record runs the unit's application natively once, without timing
// jitter or fault injection, and returns just its CoFluent recording —
// the replayable call stream detsim and snippet capture consume.
// Recordings are jitter-independent (jitter perturbs reported times,
// never the call stream), so one unjittered run yields the same
// recording any trial would.
func Record(u Unit) (*cofluent.Recording, error) {
	dev, err := device.New(u.Cfg)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", u.Spec.Name, err)
	}
	_, rec, _, err := u.record(dev)
	return rec, err
}

// record runs the unit's application once on dev under a CoFluent
// tracer. The recording keeps the IR the context built (retargeted to
// the unit's dialect) and the unit's translate target, so every replay
// of it — instrumented, timed, or simulated — runs the unit's code
// without a transform of its own.
func (u Unit) record(dev *device.Device) (*App, *cofluent.Recording, *cofluent.Tracer, error) {
	app, err := u.build()
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := cl.NewContext(dev)
	if u.Translate != nil {
		ctx.AddBuildHook(xlate.BuildHook(*u.Translate))
	}
	tr := cofluent.Attach(ctx)
	if err := app.Run(ctx); err != nil {
		return nil, nil, nil, fmt.Errorf("workloads: run %s: %w", u.Spec.Name, err)
	}
	rec, err := cofluent.Record(u.Spec.Name, tr, app.Programs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("workloads: record %s: %w", u.Spec.Name, err)
	}
	rec.Translate = u.Translate
	return app, rec, tr, nil
}

// build instantiates the unit's application with its programs
// retargeted to the unit's dialect. Builders return fresh IR on every
// call and their host drivers create programs from those same values,
// so retargeting in place is what makes the driver build — and the
// recording keep — the dialect's code.
func (u Unit) build() (*App, error) {
	app, err := u.Spec.Build(u.Scale)
	if err != nil {
		return nil, fmt.Errorf("workloads: build %s: %w", u.Spec.Name, err)
	}
	if u.Dialect != isa.DialectGEN {
		for _, p := range app.Programs {
			rp, err := xlate.RetargetProgram(p, u.Dialect)
			if err != nil {
				return nil, fmt.Errorf("workloads: %s: %w", u.Spec.Name, err)
			}
			p.Kernels = rp.Kernels
		}
	}
	return app, nil
}

// TimedReplay re-executes a recording without instrumentation on the
// given device configuration and returns per-invocation times — a new
// trial (different seed), frequency, or architecture generation for the
// Section V-E validations.
func TimedReplay(rec *cofluent.Recording, cfg device.Config, trialSeed int64) ([]float64, error) {
	dev, err := device.New(cfg)
	if err != nil {
		return nil, err
	}
	dev.SetJitter(device.NewTimingJitter(trialSeed, JitterSigma))
	tr, err := rec.Replay(dev, nil)
	if err != nil {
		return nil, err
	}
	return tr.TimesNs(), nil
}

// ApproxTarget returns the Approx-interval instruction target for a
// scale: the paper's 100M instructions scaled by the suite's 1e-4
// instruction factor (≈10K), scaled further by the test scale factors.
func ApproxTarget(sc Scale) uint64 {
	t := 10000 * sc.Iters * sc.Data
	if t < 500 {
		t = 500
	}
	return uint64(t)
}
