package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"gtpin/benchmark/result"
)

// Host-speed normalization.
//
// On a shared virtual machine, how fast this guest's CPUs run a given
// piece of code drifts by a third over minutes with what the neighbours
// run on the same cores, caches and memory. CPU time leaves out the time
// the hypervisor steals, but not that. So each run also times a fixed
// reference workload that no change to the repository can speed up or
// slow down, and reports every time scaled to the reference machine's
// nominal speed:
//
//	reported = measured × (nominal reference time / this run's reference time)^hostExponent
//
// The reference is three kernels — pointer chasing, map churn and
// sorting; a switch-dispatched interpreter; and a hash over an
// L2-sized table — each timed in thread CPU time and taken as its median
// over the run, relative to its nominal time. Their geometric mean is the
// run's host slowness.
type hostSpeed struct {
	samples [len(refKernels)][]time.Duration
}

// hostExponent is how much further the workloads' CPU times moved than
// the reference's as the host's speed drifted. Fitted to 12 runs of each
// workload on the reference machine, it lay between 1.1 and 2.3 by
// workload and metric; 1.5 left the least spread over all four.
const hostExponent = 1.5

// refReps is how many times sample runs each kernel.
const refReps = 3

// refKernels are the reference kernels with their median thread CPU
// times on the reference machine (2-vCPU KVM guest, Intel Xeon Sapphire
// Rapids host, Go 1.22) when quiet.
var refKernels = [...]struct {
	run     func() float64
	nominal time.Duration
}{
	{refChase, 120 * time.Millisecond},
	{refInterp, 17 * time.Millisecond},
	{refTable, 7500 * time.Microsecond},
}

// sample times every kernel refReps times on one locked thread, then
// collects its garbage so the next measurement does not pay for it. On a
// nil hostSpeed it does nothing.
func (h *hostSpeed) sample() {
	if h == nil {
		return
	}
	runtime.LockOSThread()
	for i := 0; i < refReps; i++ {
		for k, rk := range refKernels {
			t0 := threadCPUTime()
			refSink += rk.run()
			h.samples[k] = append(h.samples[k], threadCPUTime()-t0)
		}
	}
	runtime.UnlockOSThread()
	runtime.GC()
}

// slowness is the geometric mean, over the kernels, of each kernel's
// median time over its nominal time: 1 on the reference machine when
// quiet, above 1 when the host runs slower.
func (h *hostSpeed) slowness() float64 {
	logSum := 0.0
	for k, rk := range refKernels {
		ms := make([]float64, len(h.samples[k]))
		for i, d := range h.samples[k] {
			ms[i] = float64(d)
		}
		logSum += math.Log(result.Median(ms) / float64(rk.nominal))
	}
	return math.Exp(logSum / float64(len(refKernels)))
}

// scale is the factor that takes a measured time to the nominal host.
func (h *hostSpeed) scale() float64 { return math.Pow(h.slowness(), -hostExponent) }

// refSink keeps the kernels' results live.
var refSink float64

type refNode struct {
	next *refNode
	v    float64
	pad  [6]uint64 // a node fills a 64-byte cache line
}

// refChase walks a random cycle through an 8 MiB node graph four times,
// churns a map of slices and sorts 150,000 floats.
func refChase() float64 {
	r := rand.New(rand.NewSource(7))
	const n = 1 << 17
	nodes := make([]refNode, n)
	perm := r.Perm(n)
	for i := 0; i < n-1; i++ {
		nodes[perm[i]].next = &nodes[perm[i+1]]
		nodes[perm[i]].v = float64(i)
	}
	sum := 0.0
	for lap := 0; lap < 4; lap++ {
		for p := &nodes[perm[0]]; p != nil; p = p.next {
			sum += p.v
		}
	}
	m := make(map[uint64][]int)
	for i := 0; i < 100000; i++ {
		k := uint64(r.Intn(50000))
		m[k] = append(m[k], i)
	}
	for k, v := range m {
		sum += float64(k) * float64(len(v))
	}
	fs := make([]float64, 150000)
	for i := range fs {
		fs[i] = math.Sin(float64(i)) * r.Float64()
	}
	sort.Float64s(fs)
	return sum + fs[7]
}

// refInterp runs a random 4096-byte program 400 times through a
// switch-dispatched interpreter over 16 registers and 128 KiB of memory.
func refInterp() float64 {
	r := rand.New(rand.NewSource(9))
	prog := make([]byte, 4096)
	for i := range prog {
		prog[i] = byte(r.Intn(8))
	}
	var regs [16]uint64
	for i := range regs {
		regs[i] = uint64(i*7 + 1)
	}
	const memMask = 1<<14 - 1
	mem := make([]uint64, memMask+1)
	for it := 0; it < 400; it++ {
		for pc, op := range prog {
			a, b := pc&15, (pc>>4)&15
			switch op {
			case 0:
				regs[a] += regs[b]
			case 1:
				regs[a] ^= regs[b] << 3
			case 2:
				regs[a] *= regs[b] | 1
			case 3:
				mem[regs[b]&memMask] = regs[a]
			case 4:
				regs[a] = mem[regs[b]&memMask]
			case 5:
				if regs[a] > regs[b] {
					regs[a] -= regs[b]
				}
			case 6:
				regs[a] = regs[a]>>1 | regs[b]<<63
			case 7:
				regs[a] = math.Float64bits(math.Sqrt(float64(regs[b] & 0xffff)))
			}
		}
	}
	return float64(regs[3])
}

// refTable adds a xorshift sequence into random slots of a 512 KiB table.
func refTable() float64 {
	x := uint64(88172645463325252)
	const mask = 1<<16 - 1
	table := make([]uint64, mask+1)
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
	}
	return float64(table[5])
}
