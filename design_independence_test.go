package gtpin_test

import (
	"bytes"
	"testing"

	"gtpin/internal/cachesim"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/features"
	"gtpin/internal/intervals"
	"gtpin/internal/selection"
)

// TestSnippetsDesignIndependent: nothing a snippet holds depends on the
// design it was captured under. Kernels, memory images, host events,
// post-digests and StartDispatches come from functional execution, which
// no design parameter changes unless a timer value a kernel read reaches
// memory, and StartCycles, which only timer reads use, is 0 when no
// kernel of the recording reads the timer, as none in the roster does.
// For every roster application's Kernel/BB windows at tiny scale
// (warmup 2), capturing under each of the eight candidate designs of the
// benchmark's design sweep yields snippets whose whole encodings are
// equal, so one capture per application serves every design. Each design
// captures with the capture memo emptied, so each walks the recording
// itself.
func TestSnippetsDesignIndependent(t *testing.T) {
	f := getFixture(t)
	designs := sweepDesigns()
	for _, spec := range f.specs {
		ranges := sweepWindows(t, f, spec.Name)
		var want [][]byte // per window, the encoding captured under designs[0]
		for di, d := range designs {
			detsim.ResetCompileCache()
			for i, data := range encode(t, capture(t, d, f.results[spec.Name].Recording, ranges)) {
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

// TestSharedCaptureMatchesFresh: Capture shares one capture per
// application across designs, and what it returns equals a fresh capture
// on the caller's own design, byte for byte, whole encodings compared.
// For every roster application's Kernel/BB windows at tiny scale
// (warmup 2), the memo is filled by the eight designs of the benchmark's
// design sweep in forward order and then, emptied, in reverse, and each
// design's snippets are held to those it captures with the memo empty.
func TestSharedCaptureMatchesFresh(t *testing.T) {
	f := getFixture(t)
	designs := sweepDesigns()
	for _, spec := range f.specs {
		rec := f.results[spec.Name].Recording
		ranges := sweepWindows(t, f, spec.Name)
		fresh := make([][][]byte, len(designs))
		for di, d := range designs {
			detsim.ResetCompileCache()
			fresh[di] = encode(t, capture(t, d, rec, ranges))
		}
		for _, reverse := range []bool{false, true} {
			detsim.ResetCompileCache()
			for k := range designs {
				di := k
				if reverse {
					di = len(designs) - 1 - k
				}
				for i, data := range encode(t, capture(t, designs[di], rec, ranges)) {
					if !bytes.Equal(data, fresh[di][i]) {
						t.Errorf("%s window %d [%d, %d) under %s (reverse order %v): the shared capture differs from a fresh one",
							spec.Name, i, ranges[i].From, ranges[i].To, designs[di].name, reverse)
					}
				}
			}
			if hits, misses, _, _ := detsim.CaptureCacheStats(); misses != 1 || hits != uint64(len(designs)-1) {
				t.Errorf("%s: the eight designs made %d memo misses and %d hits, want 1 and 7", spec.Name, misses, hits)
			}
		}
	}
	detsim.ResetCompileCache()
}

// sweepWindows are the design sweep's windows of one application: its
// Kernel/BB selections with a warmup of two invocations.
func sweepWindows(t *testing.T, f *fixture, app string) []detsim.Range {
	t.Helper()
	sweep := selection.Config{Scheme: intervals.Kernel, Feature: features.BB}
	var ev *selection.Evaluation
	for _, e := range f.evals[app] {
		if e.Config == sweep {
			ev = e
		}
	}
	if ev == nil {
		t.Fatalf("%s: no %s evaluation", app, sweep)
	}
	selected := make([]int, len(ev.Selections))
	for i, s := range ev.Selections {
		selected[i] = s.Interval
	}
	wins, err := intervals.SelectedWindows(ev.Intervals, selected, 2)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	ranges := make([]detsim.Range, len(wins))
	for i, w := range wins {
		ranges[i] = detsim.Range{From: w.From, To: w.To, Warmup: w.Warmup}
	}
	return ranges
}

// capture captures the windows under a design.
func capture(t *testing.T, d design, rec *cofluent.Recording, ranges []detsim.Range) []*detsim.Snippet {
	t.Helper()
	sim, err := detsim.New(d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatalf("%s under %s: %v", rec.App, d.name, err)
	}
	return snips
}

func encode(t *testing.T, snips []*detsim.Snippet) [][]byte {
	t.Helper()
	out := make([][]byte, len(snips))
	for i, sn := range snips {
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
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
