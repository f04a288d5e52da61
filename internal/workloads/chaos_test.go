package workloads

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/faults"
)

// chaosApps is the subset of the roster the chaos sweep exercises; tiny
// but structurally diverse (different kernels, invocation counts).
var chaosApps = []string{
	"cb-throughput-juliaset",
	"cb-gaussian-buffer",
	"sandra-proc-gpu",
}

// chaosFingerprint serializes everything a run produced — per-invocation
// counts, exact timings, fault accounting, or the failure text — so two
// runs can be compared byte-for-byte.
func chaosFingerprint(res *Result, err error) string {
	if err != nil {
		return "ERR|" + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "agg=%+v|time=%v|faults=%+v\n", res.Profile.Aggregate(), res.Profile.TotalTimeSec(), res.FaultStats)
	for _, inv := range res.Profile.Invocations {
		fmt.Fprintf(&b, "%+v\n", inv)
	}
	return b.String()
}

// TestChaosSweep sweeps fault rates over the pipeline and asserts the
// robustness contract: every run either completes with exactly the
// fault-free counts (all injected faults absorbed by retry/degradation) or
// fails with an error classified by the taxonomy — and two identical runs
// are byte-identical.
func TestChaosSweep(t *testing.T) {
	cfg := device.IvyBridgeHD4000()
	for _, name := range chaosApps {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(spec, ScaleTiny, cfg, 1)
		if err != nil {
			t.Fatalf("%s: fault-free baseline: %v", name, err)
		}
		baseAgg := base.Profile.Aggregate()
		for _, rate := range []float64{0, 0.01, 0.1} {
			fo := FaultOptions{Rates: faults.Uniform(rate), Seed: 12345}
			u := Unit{Spec: spec, Scale: ScaleTiny, Cfg: cfg, TrialSeed: 1, Faults: &fo}
			r1, err1 := runPipeline(u, nil)

			// Determinism: an identical second run must reproduce the first
			// byte-for-byte, success or failure.
			fo2 := fo
			u.Faults = &fo2
			r2, err2 := runPipeline(u, nil)
			f1, f2 := chaosFingerprint(r1, err1), chaosFingerprint(r2, err2)
			if f1 != f2 {
				t.Fatalf("%s rate %v: two identical runs diverged:\n--- run 1\n%s\n--- run 2\n%s", name, rate, f1, f2)
			}

			if err1 != nil {
				// A surfaced failure must carry a taxonomy sentinel so the
				// caller can classify it with errors.Is/errors.As.
				var s *faults.Sentinel
				if !errors.As(err1, &s) {
					t.Fatalf("%s rate %v: failure not classified by the taxonomy: %v", name, rate, err1)
				}
				if rate == 0 {
					t.Fatalf("%s: zero-rate run failed: %v", name, err1)
				}
				t.Logf("%s rate %v: surfaced %q (%v)", name, rate, faults.Kind(err1), faults.ClassOf(err1))
				continue
			}

			// A successful run — at any rate — must report exactly the
			// fault-free dynamic counts: retries replay from clean
			// snapshots and degradation changes timing, never results.
			// (Timing may legitimately differ: a degraded re-execution is
			// slower, so only TimeSec is exempt from the comparison.)
			agg := r1.Profile.Aggregate()
			if agg.TimeSec <= 0 {
				t.Errorf("%s rate %v: non-positive total time", name, rate)
			}
			agg.TimeSec, baseAgg.TimeSec = 0, 0
			if agg != baseAgg {
				t.Errorf("%s rate %v: counts diverged from fault-free baseline:\n got %+v\nwant %+v",
					name, rate, agg, baseAgg)
			}
			if rate == 0 {
				if r1.FaultStats.Total() != 0 {
					t.Errorf("%s: zero-rate run recorded faults: %+v", name, r1.FaultStats)
				}
				// Zero rate is exactly the fault-free pipeline.
				if f0 := chaosFingerprint(base, nil); chaosFingerprint(r1, nil) != f0 {
					t.Errorf("%s: zero-rate run differs from plain Run", name)
				}
			} else if r1.FaultStats.Total() > 0 {
				t.Logf("%s rate %v: absorbed %d injected fault(s): %+v",
					name, rate, r1.FaultStats.Total(), r1.FaultStats)
			}
		}
	}
}

// TestChaosSeedsDecorrelate: different chaos seeds produce different fault
// streams for the same application (so sweeping seeds explores distinct
// failure interleavings).
func TestChaosSeedsDecorrelate(t *testing.T) {
	spec, err := ByName("cb-throughput-juliaset")
	if err != nil {
		t.Fatal(err)
	}
	cfg := device.IvyBridgeHD4000()
	sig := func(seed int64) string {
		res, rerr := runPipeline(Unit{Spec: spec, Scale: ScaleTiny, Cfg: cfg, TrialSeed: 1,
			Faults: &FaultOptions{Rates: faults.Uniform(0.2), Seed: seed}}, nil)
		if rerr != nil {
			return "ERR|" + rerr.Error()
		}
		return fmt.Sprintf("%+v|%v", res.FaultStats, res.Profile.TotalTimeSec())
	}
	a, b := sig(1), sig(2)
	if a == b {
		t.Errorf("seeds 1 and 2 produced identical fault behaviour: %s", a)
	}
}

// TestChaosWatchdogGenerousBudgetHarmless: a watchdog budget far above any
// tiny-scale dispatch must not change the pipeline's results.
func TestChaosWatchdogGenerousBudgetHarmless(t *testing.T) {
	spec, err := ByName("cb-gaussian-buffer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := device.IvyBridgeHD4000()
	base, err := Run(spec, ScaleTiny, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := runPipeline(Unit{Spec: spec, Scale: ScaleTiny, Cfg: cfg, TrialSeed: 1,
		Faults: &FaultOptions{Watchdog: 1 << 40}}, nil)
	if err != nil {
		t.Fatalf("generous watchdog failed the run: %v", err)
	}
	if chaosFingerprint(guarded, nil) != chaosFingerprint(base, nil) {
		t.Error("a generous watchdog budget changed the pipeline output")
	}
}
