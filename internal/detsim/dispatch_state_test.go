package detsim_test

import (
	"reflect"
	"testing"

	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/workloads"
)

// reduceApps run kernels that read register lanes before writing them
// (a block reduction computes its store address at SIMD1 and stores at
// full width), so they see whatever register state a dispatch starts
// from.
var reduceApps = []string{
	"cb-throughput-bitcoin",
	"cb-vision-facedetect",
	"cb-vision-facedetect-m",
	"cb-histogram-buffer",
	"cb-histogram-image",
	"sandra-proc-gpu",
}

// TestDispatchIgnoresEarlierEngineState: a dispatch's results depend
// only on its kernel, arguments and memory. For each reduction app and
// each phase of every third invocation (warmup 1), replaying every
// captured snippet on a fresh simulator must pass the snippets' digest
// checks, and one simulator reused for every run of every app must
// report, and leave in memory, what a fresh one does.
func TestDispatchIgnoresEarlierEngineState(t *testing.T) {
	newSim := func(t *testing.T) *detsim.Simulator {
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	reused := newSim(t)
	for _, app := range reduceApps {
		app := app
		t.Run(app, func(t *testing.T) {
			spec, err := workloads.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := workloads.Record(workloads.Unit{Spec: spec, Scale: workloads.ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			all, err := newSim(t).Run(rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			for from := 0; from < 3; from++ {
				var ranges []detsim.Range
				for i := from; i < all.FastForwarded; i += 3 {
					ranges = append(ranges, detsim.Range{From: i, To: i + 1, Warmup: 1})
				}

				snips, err := newSim(t).Capture(rec, ranges)
				if err != nil {
					t.Fatal(err)
				}
				for i, sn := range snips {
					if _, err := newSim(t).RunSnippet(sn); err != nil {
						t.Errorf("snippet %d [%d, %d): %v", i, sn.Range.From, sn.Range.To, err)
					}
				}

				freshSim := newSim(t)
				fresh, err := freshSim.Run(rec, ranges)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := reused.Run(rec, ranges)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep, fresh) {
					t.Errorf("every third invocation from %d on a reused simulator:\n%+v\nfresh simulator:\n%+v", from, rep, fresh)
				}
				if !reflect.DeepEqual(memory(reused), memory(freshSim)) {
					t.Errorf("every third invocation from %d on a reused simulator: final memory differs from a fresh simulator's", from)
				}
			}
		})
	}
}

// memory copies the final contents of every buffer a run created.
func memory(sim *detsim.Simulator) map[int][]byte {
	m := map[int][]byte{}
	for id := 0; id < 1000; id++ {
		if b := sim.Buffer(id); b != nil {
			m[id] = surfaceBytes(b)
		}
	}
	return m
}
