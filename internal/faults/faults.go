// Package faults is the failure model of the GT-Pin reproduction: a typed
// error taxonomy shared by every layer of the stack (cl, device, detsim,
// jit, gtpin) and a deterministic, seedable fault injector that the device
// and runtime consult to simulate the driver/GPU misbehavior the paper's
// multi-hour characterization runs had to survive — hung kernels,
// transient JIT failures, send/memory errors, and corrupted results.
//
// Every sentinel carries a Transient/Permanent classification, so the
// resilience layer in internal/cl can decide mechanically whether an error
// is worth retrying (transient) or must be surfaced or degraded around
// (permanent). Callers match errors with errors.Is/errors.As across
// arbitrarily deep %w chains.
package faults

import (
	"context"
	"errors"
)

// Class partitions errors by whether retrying the failed operation can
// plausibly succeed.
type Class uint8

// Error classes.
const (
	// Permanent errors reproduce on retry: malformed binaries, invalid
	// dispatches, genuine hangs, programming errors.
	Permanent Class = iota
	// Transient errors model momentary conditions — a JIT hiccup, a flaky
	// memory transaction — that a retry with backoff can clear.
	Transient
)

// String returns "transient" or "permanent".
func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "permanent"
}

// Sentinel is a classified error kind. Sentinels are compared by identity
// (errors.Is), so each variable below names exactly one failure kind.
type Sentinel struct {
	name  string
	class Class
}

// NewSentinel creates a classified sentinel error; packages outside the
// core taxonomy (tools, tests) may mint their own kinds.
func NewSentinel(name string, class Class) *Sentinel {
	return &Sentinel{name: name, class: class}
}

// Error implements error.
func (s *Sentinel) Error() string { return s.name }

// Class reports the sentinel's retry classification.
func (s *Sentinel) Class() Class { return s.class }

// The taxonomy. Each layer wraps these with %w so call sites can classify
// failures without parsing strings.
var (
	// ErrKernelHang marks a kernel that stopped making forward progress;
	// the watchdog converts the hang into ErrWatchdogTimeout, and the two
	// are wrapped together. Hangs reproduce on retry but may clear on a
	// degraded configuration.
	ErrKernelHang = NewSentinel("kernel hang", Permanent)

	// ErrWatchdogTimeout is raised by the per-enqueue watchdog inside the
	// device and detsim step loops when a dispatch exceeds its
	// cycle/instruction budget.
	ErrWatchdogTimeout = NewSentinel("watchdog timeout", Permanent)

	// ErrSendFault is a failed send (memory) transaction — the modeled
	// analogue of a bus/ECC error on one message. Retryable.
	ErrSendFault = NewSentinel("send fault", Transient)

	// ErrJITTransient is a momentary driver JIT failure during program
	// build. Retryable.
	ErrJITTransient = NewSentinel("transient jit failure", Transient)

	// ErrCorruptResult marks a dispatch whose results failed integrity
	// checking (detected corruption). The execution side effects are
	// untrustworthy; the dispatch must be replayed from a clean snapshot.
	ErrCorruptResult = NewSentinel("corrupted result", Transient)

	// ErrEventNotComplete is returned when profiling information is
	// requested from an event no synchronization call has completed yet.
	ErrEventNotComplete = NewSentinel("event not complete", Permanent)

	// ErrBadBinary marks a malformed or truncated device binary.
	ErrBadBinary = NewSentinel("bad kernel binary", Permanent)

	// ErrInvalidDispatch marks a dispatch that fails validation: missing
	// binary, bad work size, unbound arguments or surfaces.
	ErrInvalidDispatch = NewSentinel("invalid dispatch", Permanent)

	// ErrAlreadyAttached is returned when a second instrumentation engine
	// attaches to an already-instrumented context or kernel.
	ErrAlreadyAttached = NewSentinel("already instrumented", Permanent)

	// ErrResourceExhausted marks an out-of-resource condition (trace
	// buffer slots, call-stack depth) that retrying cannot fix.
	ErrResourceExhausted = NewSentinel("resource exhausted", Permanent)

	// ErrSurfaceOverflow marks a kernel whose surface binding table
	// cannot hold one more surface: binding-table indices are 8-bit, so
	// instrumenting a kernel that already declares the maximum number of
	// surfaces would alias the trace surface onto a user surface.
	ErrSurfaceOverflow = NewSentinel("surface binding table overflow", Permanent)

	// ErrBadConfig marks an invalid tool or engine configuration (e.g. a
	// non-power-of-two trace-ring size) detected at construction time.
	// Retrying cannot fix a configuration.
	ErrBadConfig = NewSentinel("invalid configuration", Permanent)

	// ErrUntranslatable marks a kernel the cross-ISA binary translator
	// cannot retarget: a construct with no sound equivalent in the
	// target dialect (a dispatch or send at a width the target lacks, a
	// flag-reducing branch at such a width, a loop back into the entry
	// block when a legalization preamble is required, or a register file
	// too small for the kernel). Permanent: the same kernel fails the
	// same way until it is re-authored.
	ErrUntranslatable = NewSentinel("untranslatable kernel", Permanent)

	// ErrBadRecording marks a CoFluent recording whose call stream does
	// not form a valid replay: data transfers with out-of-range offsets
	// or sizes, references to objects that were never created. Permanent:
	// replaying the same bytes fails the same way, so the recording must
	// be regenerated.
	ErrBadRecording = NewSentinel("corrupt recording", Permanent)

	// ErrSnippetDiverged marks an interval-snippet replay whose final
	// memory images no longer hash to the digests recorded at capture
	// time — the snippet artifact and the simulator disagree about the
	// interval's architectural effect, so its detailed results cannot be
	// trusted. Permanent: the same snippet diverges identically on
	// retry.
	ErrSnippetDiverged = NewSentinel("snippet replay diverged", Permanent)

	// ErrWorkerPanic marks a panic recovered inside a sweep worker; the
	// panic value and stack are carried in the wrap chain. Permanent: a
	// unit's execution is a function of the unit, fault injection
	// included, so running it again panics the same way.
	ErrWorkerPanic = NewSentinel("worker panic", Permanent)

	// ErrUnitTimeout marks a work unit abandoned because it exceeded its
	// execution deadline — the pool's defense against a genuinely hung
	// unit wedging a sweep or a service worker. Permanent: the same unit
	// under the same budget hangs again, so the failure must surface (a
	// caller granting a larger budget is a new configuration).
	ErrUnitTimeout = NewSentinel("unit timeout", Permanent)

	// ErrQueueFull marks an admission rejected because a bounded queue
	// is at capacity — the load-shedding signal of the profiling
	// service. Transient: the queue drains, retrying later can succeed.
	ErrQueueFull = NewSentinel("queue full", Transient)

	// ErrPoisonUnit marks a work unit quarantined by the fleet
	// coordinator because it killed (or hung) several consecutive
	// workers. The unit itself is the common factor, so re-dispatching
	// it again would only keep destroying workers: the failure is
	// permanent and surfaces as a typed fault in the merged report.
	ErrPoisonUnit = NewSentinel("poison unit", Permanent)

	// ErrStaleWorker marks a result rejected by the fleet's fencing
	// epoch: a worker that was declared lost (and whose lease was
	// re-dispatched) came back from the dead and journaled a result for
	// a lease it no longer holds. Accepting it could double-count or
	// reorder units, so the late write is refused. Permanent: the epoch
	// never becomes valid again.
	ErrStaleWorker = NewSentinel("stale worker", Permanent)
)

// classifier lets non-Sentinel error types participate in classification.
type classifier interface{ Class() Class }

// ClassOf walks err's wrap chain and returns the classification of the
// first classified error found. Unclassified errors — including plain
// fmt.Errorf strings and context cancellation — default to Permanent, the
// safe choice: never retry what we don't understand.
func ClassOf(err error) Class {
	var c classifier
	if errors.As(err, &c) {
		return c.Class()
	}
	return Permanent
}

// IsTransient reports whether err is classified transient, i.e. a retry
// with backoff may succeed. Context cancellation is never transient.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return ClassOf(err) == Transient
}

// Kind returns the human-readable name of the taxonomy sentinel err wraps,
// or "" if err wraps none — what harnesses print in failure tables.
func Kind(err error) string {
	var s *Sentinel
	if errors.As(err, &s) {
		return s.name
	}
	return ""
}

// Label names err's failure for journals, result files and run-status
// tables: its Kind, or its Class when it wraps no sentinel.
func Label(err error) string {
	if k := Kind(err); k != "" {
		return k
	}
	return ClassOf(err).String()
}
