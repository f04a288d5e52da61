package device_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/jit"
	"gtpin/internal/testgen"
)

// TestClockFoldMatchesRun: a device's timestamp counter after each
// dispatch is Config.Clock folded over the work of the dispatches so
// far, under its own configuration and, from another configuration's
// run of the same dispatches, under every other: the work a run
// measures is the same on every configuration, and Clock charges it what
// Device.Run does. The dispatches are random testgen kernels with random
// trip counts and work sizes, long enough runs to cross the drift
// periods, on both presets and their EU-count and clock variants.
func TestClockFoldMatchesRun(t *testing.T) {
	hd4000, hd4600 := device.IvyBridgeHD4000(), device.HaswellHD4600()
	configs := []device.Config{
		hd4000, hd4600,
		hd4000.WithEUs(8), hd4000.WithEUs(32), hd4600.WithEUs(40),
		hd4000.WithFrequency(350), hd4000.WithFrequency(850), hd4600.WithFrequency(600),
	}
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7300 + trial)))
			cfg := testgen.DefaultConfig()
			p := testgen.Program(rng, fmt.Sprintf("clk%d", trial), cfg)
			bins, err := jit.CompileProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			sched := testgen.Driver(rng, p, 150, cfg)

			works := make([][]device.ExecStats, len(configs))
			clocks := make([][]uint64, len(configs))
			for ci, c := range configs {
				works[ci], clocks[ci] = runSchedule(t, c, bins, sched)
			}
			for ci, c := range configs {
				if !reflect.DeepEqual(works[ci], works[0]) {
					t.Fatalf("%s measured other work than %s", c.Name, configs[0].Name)
				}
				for wi := range configs {
					if got := c.Clock(works[wi]); !reflect.DeepEqual(got, clocks[ci]) {
						t.Fatalf("%s: the clock folded over %s's work differs from Device.Run's", c.Name, configs[wi].Name)
					}
				}
			}
		})
	}
}

// runSchedule runs the schedule on a fresh device of configuration c and
// returns each dispatch's work and the timestamp counter before the
// first dispatch and after each.
func runSchedule(t *testing.T, c device.Config, bins map[string]*jit.Binary, sched []testgen.DriverStep) ([]device.ExecStats, []uint64) {
	t.Helper()
	dev, err := device.New(c)
	if err != nil {
		t.Fatal(err)
	}
	in, err := device.NewBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := device.NewBuffer(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, in.Size())
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if _, err := in.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var work []device.ExecStats
	clock := []uint64{dev.Timestamp()}
	for _, s := range sched {
		st, err := dev.Run(device.Dispatch{
			Binary: bins[s.Kernel], Args: []uint32{s.Iters}, Surfaces: []*device.Buffer{in, out}, GlobalWorkSize: s.GWS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.MemSends == 0 {
			t.Fatalf("%s: a dispatch of %s made no memory sends", c.Name, s.Kernel)
		}
		work = append(work, c.Work(st))
		clock = append(clock, dev.Timestamp())
	}
	return work, clock
}
