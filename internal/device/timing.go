package device

import (
	"math"
	"math/rand"
)

// thermalDrift returns the performance-drift factor of the device's
// n-th dispatch (counting from 0); see Config.ThermalAmp.
func (c Config) thermalDrift(n uint64) float64 {
	f := 1.0
	x := float64(n)
	if c.ThermalAmp != 0 {
		f += c.ThermalAmp * math.Sin(2*math.Pi*x/c.ThermalPeriod)
	}
	if c.ContentionAmp != 0 {
		f += c.ContentionAmp * math.Sin(2*math.Pi*x/c.ContentionPeriod)
	}
	return f
}

// MemStallCycles returns the memory stall a thread is charged per
// memory send: the wall-clock latency in cycles, divided by the EU's SMT
// depth, since co-resident threads hide most of each other's latency.
func (c Config) MemStallCycles() uint64 {
	return uint64(c.MemLatencyNs * c.freqGHz() / float64(c.ThreadsPerEU))
}

// dispatchTimeNs converts a dispatch's raw execution statistics into a
// modelled wall-clock time.
//
// The model is a roofline-style composition:
//
//   - compute: total thread-cycles (which already include the
//     SMT-amortized memory stall charged per send during execution)
//     spread across the effective hardware parallelism
//     (min(groups, EUs*ThreadsPerEU)), scaled by the clock.
//   - bandwidth: total bytes over peak bandwidth; the dispatch cannot be
//     faster than its bandwidth floor.
//
// Because latency and bandwidth are expressed in wall-clock terms while
// compute scales with frequency, seconds-per-instruction responds
// non-linearly to frequency changes — the property the paper's
// cross-frequency validation (Figure 8, middle) exercises.
func (c Config) dispatchTimeNs(st *ExecStats) float64 {
	par := float64(c.HWThreads())
	if g := float64(st.Groups); g > 0 && g < par {
		par = g
	}
	if par < 1 {
		par = 1
	}
	cyclesNs := 1.0 / c.freqGHz()
	computeNs := float64(st.ComputeCycles) / c.IssueRate * cyclesNs / par
	filter := c.BWFilter
	if filter <= 0 || filter > 1 {
		filter = 1
	}
	// bytes / (GB/s) = ns; only cache-filtered traffic reaches DRAM.
	bwNs := float64(st.BytesRead+st.BytesWritten) * filter / c.MemGBps
	t := computeNs
	if bwNs > t {
		t = bwNs
	}
	return c.DispatchNs + t
}

// TimingJitter applies multiplicative noise to modelled dispatch times,
// standing in for run-to-run variation on real hardware (the paper's
// cross-trial validation replays the same API sequence and observes
// slightly different timings). Sigma is the half-width of the uniform
// relative error; a given seed yields a reproducible trial.
type TimingJitter struct {
	rng   *rand.Rand
	sigma float64
}

// NewTimingJitter creates a jitter source. sigma of 0.01 means timings
// vary within ±1%.
func NewTimingJitter(seed int64, sigma float64) *TimingJitter {
	return &TimingJitter{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

// Perturb returns t scaled by a random factor in [1-sigma, 1+sigma].
func (j *TimingJitter) Perturb(t float64) float64 {
	if j == nil || j.sigma == 0 {
		return t
	}
	return t * (1 + j.sigma*(2*j.rng.Float64()-1))
}

// SetJitter installs a timing jitter source on the device; nil disables
// noise. Jitter affects only modelled times, never functional results.
func (d *Device) SetJitter(j *TimingJitter) { d.jitter = j }
