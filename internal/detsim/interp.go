package detsim

import (
	"fmt"

	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/kernel"
)

// This file composes the shared execution engine into the detailed
// backend: cycle-level groups run engine.Env.RunGroupDetailed against
// the simulated cache hierarchy, unsampled groups run the functional
// loop, and the per-enqueue watchdog budget is armed per invocation so
// it trips at the same dynamic instruction as the functional device.
// (Warmup invocations run on the fast-forward device with the
// cache-touch hook installed — see replay.launch.) All ISA
// interpretation lives in internal/engine; this package contributes the
// sampling, warmup, extrapolation, and wall-time modelling.

// beginInvocation arms the engine for one enqueue: watchdog budget and,
// when a probe is attached, the basic-block observer hook.
func (s *Simulator) beginInvocation(k *kernel.Kernel) {
	s.eng.Watchdog.Reset(s.cfg.WatchdogInstrs)
	if s.probe != nil {
		s.eng.OnBlock = s.probe.Profile(k).CountBlock
	} else {
		s.eng.OnBlock = nil
	}
}

// runDetailed simulates one dispatch at cycle level: every channel of
// every instruction is evaluated individually, every memory access
// walks the cache hierarchy, and an in-order scoreboard charges
// dependency stalls. The architectural results are identical to the
// fast functional path — a property the test suite enforces — but the
// simulation cost per instruction is orders of magnitude higher.
func (s *Simulator) runDetailed(k *kernel.Kernel, args []uint32, surfs []*device.Buffer, gws, sampleGroups int, rep *Report) error {
	if gws <= 0 {
		return fmt.Errorf("global work size %d", gws)
	}
	if len(args) < k.NumArgs || len(surfs) < k.NumSurfaces {
		return fmt.Errorf("insufficient args (%d/%d) or surfaces (%d/%d)",
			len(args), k.NumArgs, len(surfs), k.NumSurfaces)
	}
	if sampleGroups < 1 {
		sampleGroups = 1
	}
	width := int(k.SIMD)
	groups := (gws + width - 1) / width
	freq := float64(s.cfg.Device.FreqMHz) / 1000 // GHz

	s.beginInvocation(k)
	// Timer sends observe live time: the enqueue's starting cycle count
	// plus the in-flight group's own cycles (pipeline cycle at issue for
	// detailed groups, accumulated functional cycles for unsampled ones).
	// Previously the detailed hook was frozen at the dispatch-start value
	// and unsampled groups saw no timer at all, so a kernel timing itself
	// read a stale value that disagreed with the functional device.
	base := rep.DetailedCycles
	s.det.Timer = func(cycle uint64) uint32 { return uint32(base + cycle) }
	s.eng.Timer = func(groupCycles uint64) uint32 { return uint32(base + groupCycles) }
	if s.timerHook != nil {
		s.det.Timer = s.timerHook
		s.eng.Timer = s.timerHook
	}
	s.eng.Touch = nil

	var ds engine.DetailedStats
	var fst engine.Stats // functional-loop counters; detsim models time itself
	var totalCycles uint64
	var missBytes uint64
	sampled := 0
	for g := 0; g < groups; g++ {
		active := gws - g*width
		if active > width {
			active = width
		}
		if g%sampleGroups == 0 {
			cycles, misses, err := s.eng.RunGroupDetailed(&s.det, k, args, surfs, g, active, freq, &ds)
			if err != nil {
				return fmt.Errorf("group %d: %w", g, err)
			}
			totalCycles += cycles
			missBytes += misses
			sampled++
		} else if err := s.eng.RunGroup(k, args, surfs, g, active, &fst); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	rep.DetailedInstrs += ds.Instrs
	rep.LaneOps += ds.LaneOps
	// Extrapolate unsampled groups' timing from the sampled ones.
	if sampled > 0 && sampled < groups {
		scale := float64(groups) / float64(sampled)
		totalCycles = uint64(float64(totalCycles) * scale)
		missBytes = uint64(float64(missBytes) * scale)
	}

	rep.DetailedCycles += totalCycles
	// Wall-time: cycles across the machine's parallelism, with a DRAM
	// bandwidth floor on the traffic that missed every cache level (the
	// caches filter the rest — a refinement over the fast timing model).
	par := float64(s.cfg.Device.HWThreads())
	if g := float64(groups); g < par {
		par = g
	}
	t := float64(totalCycles) / freq / par / s.cfg.Device.IssueRate
	if bw := float64(missBytes) / s.cfg.Device.MemGBps; bw > t {
		t = bw
	}
	rep.DetailedTimeNs += s.cfg.Device.DispatchNs + t
	return nil
}

// touchCache is the warmup hook, installed on the fast-forward device
// while a warmup invocation runs: every send's accesses walk the
// simulated hierarchy so microarchitectural state stays warm. (Warmup
// execution itself runs on the device — see replay.launch — so warmup
// time is modelled and the device clock advances exactly as it would
// without warmup.)
func (s *Simulator) touchCache(keys []uint64, write bool) {
	s.caches.AccessLanes(keys, write)
}
