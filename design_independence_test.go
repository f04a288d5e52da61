package gtpin_test

import (
	"bytes"
	"testing"

	"gtpin/internal/cachesim"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/selection"
)

// TestSnippetsDesignIndependent: of everything a snippet holds, only
// StartCycles depends on the design it was captured under. Kernels,
// memory images, host events, post-digests and StartDispatches come from
// functional execution, which no design parameter changes unless a timer
// value a kernel read reaches memory. For every roster application's
// Kernel/BB windows at tiny scale (warmup 2), capturing under each of
// the eight candidate designs of the benchmark's design sweep yields
// snippets whose encodings are equal once StartCycles is zeroed, so one
// capture per application could serve every design.
func TestSnippetsDesignIndependent(t *testing.T) {
	f := getFixture(t)
	sweep := selection.Config{Scheme: intervals.Kernel, Feature: features.BB}
	designs := sweepDesigns()
	for _, spec := range f.specs {
		var ev *selection.Evaluation
		for _, e := range f.evals[spec.Name] {
			if e.Config == sweep {
				ev = e
			}
		}
		if ev == nil {
			t.Fatalf("%s: no %s evaluation", spec.Name, sweep)
		}
		selected := make([]int, len(ev.Selections))
		for i, s := range ev.Selections {
			selected[i] = s.Interval
		}
		wins, err := intervals.SelectedWindows(ev.Intervals, selected, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ranges := make([]detsim.Range, len(wins))
		for i, w := range wins {
			ranges[i] = detsim.Range{From: w.From, To: w.To, Warmup: w.Warmup}
		}

		var want [][]byte // per window, the encoding captured under designs[0]
		for di, d := range designs {
			sim, err := detsim.New(d.cfg)
			if err != nil {
				t.Fatal(err)
			}
			snips, err := sim.Capture(f.results[spec.Name].Recording, ranges)
			if err != nil {
				t.Fatalf("%s under %s: %v", spec.Name, d.name, err)
			}
			for i, sn := range snips {
				cp := *sn
				cp.StartCycles = 0
				data, err := cp.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if di == 0 {
					want = append(want, data)
				} else if !bytes.Equal(data, want[i]) {
					t.Errorf("%s window %d [%d, %d) warmup %d: the snippet captured under %s differs from the one captured under %s",
						spec.Name, i, ranges[i].From, ranges[i].To, ranges[i].Warmup, d.name, designs[0].name)
				}
			}
		}
	}
}

type design struct {
	name string
	cfg  detsim.Config
}

// sweepDesigns are the design sweep's candidate machines: the HD 4000
// baseline, EU count, clock, the next generation, and L3 capacity.
func sweepDesigns() []design {
	with := func(name string, f func(*detsim.Config)) design {
		c := detsim.DefaultConfig()
		f(&c)
		return design{name, c}
	}
	l3 := func(kib int) func(*detsim.Config) {
		return func(c *detsim.Config) {
			l := cachesim.HD4000L3()
			l.SizeBytes = kib << 10
			c.Caches = []cachesim.Config{l, cachesim.HD4000LLC()}
		}
	}
	return []design{
		with("hd4000", func(*detsim.Config) {}),
		with("8eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(8) }),
		with("32eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(32) }),
		with("350mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(350) }),
		with("850mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(850) }),
		with("hd4600", func(c *detsim.Config) { c.Device = device.HaswellHD4600() }),
		with("l3-128k", l3(128)),
		with("l3-512k", l3(512)),
	}
}
