package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/device"
	"gtpin/internal/obs"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// passes calls pass until the budget is about spent: another pass starts
// only if it is expected to end no more than half a pass past the
// budget. Every pass is the same work, so each yields one rate sample.
// Before each pass it samples the host's speed (host may be nil), so the
// samples follow the host through the measurement. Each pass starts from
// a collected heap, so it neither pays for the last pass's garbage nor
// peaks in memory by when the last GC fell.
func passes(budget time.Duration, host *hostSpeed, pass func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		host.sample()
		runtime.GC()
		if err := pass(); err != nil {
			return err
		}
		el := time.Since(start)
		if el+el/time.Duration(2*n) > budget {
			return nil
		}
	}
}

// roster returns specs in a seeded order. The seed only reorders: every
// seed runs the same applications.
func roster(seed int64, specs []*workloads.Spec) []*workloads.Spec {
	out := make([]*workloads.Spec, len(specs))
	for i, j := range permutation(seed, len(specs)) {
		out[i] = specs[j]
	}
	return out
}

// permutation is a seeded order of 0..n-1.
func permutation(seed int64, n int) []int { return rand.New(rand.NewSource(seed)).Perm(n) }

// layout lays out every application at every trial seed, trial-major, on
// the paper's HD 4000.
func layout(specs []*workloads.Spec, sc workloads.Scale, trialSeeds ...int64) []workloads.Unit {
	units := make([]workloads.Unit, 0, len(specs)*len(trialSeeds))
	for _, t := range trialSeeds {
		for _, s := range specs {
			units = append(units, workloads.Unit{Spec: s, Scale: sc, Cfg: device.IvyBridgeHD4000(), TrialSeed: t})
		}
	}
	return units
}

// profileUnits runs the units through the pipeline in memory and holds each
// artifact to ref, so every set-up repetition must profile identically.
func profileUnits(units []workloads.Unit, ref map[string]string) ([]workloads.Outcome, error) {
	outs, err := workloads.RunPool(context.Background(), units, workloads.PoolOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if err := checkArtifact(ref, o); err != nil {
			return nil, fmt.Errorf("unit %s: %w", o.Unit.Key(), err)
		}
	}
	return outs, nil
}

// checkArtifact holds a unit's artifact to the digest ref holds for it.
func checkArtifact(ref map[string]string, o workloads.Outcome) error {
	if o.Err != nil {
		return o.Err
	}
	data, err := o.Artifact.Encode()
	if err != nil {
		return err
	}
	return checkRef(ref, o.Unit.Key(), runstate.Digest(data))
}

// jsonDigest hashes v's JSON encoding, which is canonical for the
// structs hashed here (no maps, floats in shortest round-trip form).
func jsonDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return runstate.Digest(data), nil
}

// digestOf hashes a key→digest map in key order.
func digestOf(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, m[k])
	}
	return runstate.Digest([]byte(b.String()))
}

// checkRef compares an output digest against the reference recorded for
// key, recording it as the reference when there is none yet.
func checkRef(ref map[string]string, key, got string) error {
	want, ok := ref[key]
	if !ok {
		ref[key] = got
		return nil
	}
	if want != got {
		return fmt.Errorf("%s: digest %.12s, reference %.12s: %w", key, got, want, errMismatch)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// meanByKey averages m's values, summed in key order so that the mean
// repeats to the last bit; 0 for an empty map.
func meanByKey(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum / float64(max(1, len(m)))
}

// perOp is a total spread over ops.
func perOp(total float64, ops int, unit string) result.Metric {
	if ops == 0 {
		return result.Metric{Unit: unit}
	}
	return result.Metric{Value: total / float64(ops), Unit: unit, N: ops}
}

// ratio is hits over lookups, with the lookups as its base.
func ratio(hits, lookups uint64) result.Metric {
	m := result.Metric{Unit: "ratio", N: int(lookups), Note: fmt.Sprintf("%d of %d", hits, lookups)}
	if lookups > 0 {
		m.Value = float64(hits) / float64(lookups)
	}
	return m
}

// snapshotCounters reads the program's obs counters.
func snapshotCounters() map[string]uint64 { return obs.Default().Snapshot().Counters }
