package faults

import (
	"fmt"
	"math"
)

// Rates configures per-site fault probabilities, each in [0, 1]:
//
//   - Hang: probability an invocation hangs (trips the watchdog).
//   - Send: probability an invocation suffers one failed send transaction
//     (the faulting send index is itself drawn deterministically).
//   - JIT: probability one kernel's JIT compilation fails transiently on
//     one build attempt.
//   - Corrupt: probability an invocation completes but its results fail
//     integrity checking.
type Rates struct {
	Hang    float64
	Send    float64
	JIT     float64
	Corrupt float64
}

// Uniform returns Rates with every site set to r — what the chaos sweeps
// use.
func Uniform(r float64) Rates { return Rates{Hang: r, Send: r, JIT: r, Corrupt: r} }

// Zero reports whether every rate is zero (injection disabled).
func (r Rates) Zero() bool { return r.Hang == 0 && r.Send == 0 && r.JIT == 0 && r.Corrupt == 0 }

func (r Rates) validate() error {
	for _, v := range [...]float64{r.Hang, r.Send, r.JIT, r.Corrupt} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("faults: rate %v outside [0,1]", v)
		}
	}
	return nil
}

// Stats counts the faults an injector has fired, by site. Tests use it to
// assert every injected fault was retried to success, degraded, or
// surfaced as a typed error.
type Stats struct {
	Hangs       uint64
	SendFaults  uint64
	JITFaults   uint64
	Corruptions uint64
}

// Total returns the number of faults fired across all sites.
func (s Stats) Total() uint64 { return s.Hangs + s.SendFaults + s.JITFaults + s.Corruptions }

// Injector draws faults deterministically: every decision is a pure
// function of (seed, site, kernel name, per-kernel draw count), with no
// wall-clock or global randomness, so two identical runs inject the
// identical fault sequence — the property the chaos suite's byte-identical
// determinism check rests on.
//
// A retry re-executes the kernel through a fresh draw (the per-kernel
// count has advanced), which is how transient faults clear: the next
// attempt's hash lands under the rate threshold or not, deterministically.
//
// An Injector is not safe for concurrent use; like the device it plugs
// into, it belongs to one in-order command stream. Parallel harnesses
// create one injector per application, with a per-application derived
// seed (see DeriveSeed).
type Injector struct {
	seed  uint64
	rates Rates

	invocations map[string]uint64 // per-kernel execution draws
	builds      map[string]uint64 // per-kernel JIT-attempt draws
	stats       Stats
}

// NewInjector creates an injector with the given seed and rates.
func NewInjector(seed int64, rates Rates) (*Injector, error) {
	if err := rates.validate(); err != nil {
		return nil, err
	}
	return &Injector{
		seed:        uint64(seed),
		rates:       rates,
		invocations: make(map[string]uint64),
		builds:      make(map[string]uint64),
	}, nil
}

// Stats returns how many faults have fired so far, by site.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}

// DeriveSeed maps a base seed and a name (an application, a phase) to a
// stream-specific seed, so parallel per-application injectors draw
// independent but reproducible fault sequences.
func DeriveSeed(seed int64, name string) int64 {
	h := fnv1a(offset64, uint64(seed))
	h = fnv1aString(h, name)
	return int64(h)
}

// Invocation is the fault plan for one kernel execution attempt, drawn
// once at dispatch start. A nil *Invocation (from a nil injector) fires
// nothing, so the device consults it unconditionally.
type Invocation struct {
	inj     *Injector
	hang    bool
	corrupt bool
	// sendAt is the 1-based index of the faulting send transaction, or 0
	// when this attempt's sends all succeed.
	sendAt uint64
}

// BeginInvocation draws the fault plan for the next execution attempt of
// the named kernel. Each call advances the kernel's draw count, so
// repeated attempts (retries, degraded re-execution) see fresh draws.
func (inj *Injector) BeginInvocation(kernel string, sends uint64) *Invocation {
	if inj == nil || inj.rates.Zero() {
		return nil
	}
	n := inj.invocations[kernel]
	inj.invocations[kernel]++
	h := inj.draw(kernel, n)
	v := &Invocation{inj: inj}
	v.hang = fire(fnv1a(h, 'H'), inj.rates.Hang)
	v.corrupt = fire(fnv1a(h, 'C'), inj.rates.Corrupt)
	if fire(fnv1a(h, 'S'), inj.rates.Send) {
		// Pick which transaction fails; a dispatch with fewer sends than
		// the drawn index escapes the fault, mirroring how a shorter
		// kernel has a smaller exposure window.
		span := sends
		if span == 0 {
			span = 64
		}
		v.sendAt = 1 + fnv1a(h, 'I')%span
	}
	if v.hang || v.corrupt || v.sendAt > 0 {
		return v
	}
	return nil
}

// Hang reports whether this attempt hangs. Counted once per fired fault.
func (v *Invocation) Hang() bool {
	if v == nil || !v.hang {
		return false
	}
	v.inj.stats.Hangs++
	return true
}

// SendFault reports whether the n-th (1-based) send transaction of this
// attempt faults.
func (v *Invocation) SendFault(n uint64) bool {
	if v == nil || v.sendAt == 0 || n != v.sendAt {
		return false
	}
	v.inj.stats.SendFaults++
	return true
}

// CorruptResult reports whether this attempt's results are corrupted,
// checked after the dispatch completes.
func (v *Invocation) CorruptResult() bool {
	if v == nil || !v.corrupt {
		return false
	}
	v.inj.stats.Corruptions++
	return true
}

// JITFault reports whether the named kernel's next JIT attempt fails
// transiently. Each call advances the kernel's build-attempt count, so a
// rebuild after a failure draws fresh.
func (inj *Injector) JITFault(kernel string) bool {
	if inj == nil || inj.rates.JIT == 0 {
		return false
	}
	n := inj.builds[kernel]
	inj.builds[kernel]++
	if fire(fnv1a(inj.draw(kernel, n), 'J'), inj.rates.JIT) {
		inj.stats.JITFaults++
		return true
	}
	return false
}

// draw hashes (seed, kernel, count) into the 64-bit base from which the
// per-site decisions are derived.
func (inj *Injector) draw(kernel string, n uint64) uint64 {
	h := fnv1a(offset64, inj.seed)
	h = fnv1aString(h, kernel)
	return fnv1a(h, n)
}

// fire converts a hash to a uniform [0,1) variate and compares it to the
// rate.
func fire(h uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(h>>11)/(1<<53) < rate
}

// FNV-1a over 64-bit words and strings.
const (
	offset64 = 0xcbf29ce484222325
	prime64  = 0x100000001b3
)

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
