package cl

import (
	"errors"
	"fmt"

	"gtpin/internal/device"
	"gtpin/internal/faults"
)

// Resilience is the runtime's failure policy, applied wherever the queue
// drains (Finish, Flush, WaitForEvents, and the read/copy synchronization
// calls) and at program build:
//
//   - transient faults (faults.IsTransient) are retried, the dispatch's
//     memory replayed from a clean snapshot each attempt;
//   - kernels that hang or exhaust their retries are re-executed once on
//     a degraded device configuration (device.Config.Degraded), recorded
//     in ExecStats.Degraded;
//   - everything else is surfaced as a typed *KernelExecError.
type Resilience struct {
	// MaxRetries bounds retry attempts per kernel execution (and per
	// program build) for transient faults.
	MaxRetries int
	// Degrade enables re-execution on the degraded device configuration
	// after a hang/watchdog timeout or exhausted transient retries.
	Degrade bool
}

// DefaultResilience returns the policy contexts start with: three
// retries, degradation enabled.
func DefaultResilience() Resilience {
	return Resilience{MaxRetries: 3, Degrade: true}
}

// SetResilience replaces the context's failure policy.
func (ctx *Context) SetResilience(r Resilience) { ctx.resilience = r }

// KernelExecError reports a kernel execution that failed past the
// resilience policy during a queue drain. It identifies the failing
// kernel and its position in the command stream; the wrapped error
// carries the taxonomy classification.
type KernelExecError struct {
	Kernel        string
	EnqueueSeq    int // API-call sequence number of the enqueue
	InvocationSeq int // invocation order across the application
	Attempts      int // execution attempts consumed, degraded included
	Degraded      bool
	Err           error
}

// Error implements error.
func (e *KernelExecError) Error() string {
	return fmt.Sprintf("cl: kernel %s (enqueue seq %d, invocation %d) failed after %d attempt(s): %v",
		e.Kernel, e.EnqueueSeq, e.InvocationSeq, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/errors.As.
func (e *KernelExecError) Unwrap() error { return e.Err }

// degradedDevice lazily creates the fallback device the degradation
// policy re-executes on. It shares the primary device's jitter source,
// fault injector, and watchdog budget so degraded execution stays inside
// the same deterministic stream.
func (ctx *Context) degradedDevice() (*device.Device, error) {
	if ctx.degraded != nil {
		return ctx.degraded, nil
	}
	d, err := device.New(ctx.dev.Config().Degraded())
	if err != nil {
		return nil, fmt.Errorf("cl: degraded device: %w", err)
	}
	d.SetJitter(ctx.dev.Jitter())
	d.SetFaultInjector(ctx.dev.FaultInjector())
	d.SetWatchdog(ctx.dev.WatchdogBudget())
	ctx.degraded = d
	return d, nil
}

// executeResilient runs one pending dispatch under the resilience policy
// and returns its stats, with the attempt/degradation bookkeeping filled
// in, or the final classified error.
func (q *Queue) executeResilient(p *pendingExec) (device.ExecStats, error) {
	surfs := make([]*device.Buffer, len(p.surfaces), len(p.surfaces)+1)
	for i, b := range p.surfaces {
		surfs[i] = b.buf
	}
	if q.ctx.traceBuf != nil {
		surfs = append(surfs, q.ctx.traceBuf)
	}
	disp := device.Dispatch{
		Binary:         p.kernel.bin,
		Args:           p.args,
		Surfaces:       surfs,
		GlobalWorkSize: p.gws,
	}

	pol := q.ctx.resilience
	dev := q.ctx.dev
	// Snapshots make replay safe: a faulted attempt may have partially
	// mutated surfaces (and the GT-Pin trace buffer's counters), so every
	// retry and the degraded re-execution start from the pre-dispatch
	// memory image. Only taken when a fault source is actually present.
	var snap [][]byte
	if (pol.MaxRetries > 0 || pol.Degrade) &&
		(dev.FaultInjector() != nil || dev.WatchdogBudget() > 0) {
		snap = q.snapshot(surfs)
	}
	restore := func() {
		for i, s := range surfs {
			copy(s.Bytes(), snap[i])
		}
	}

	attempts, retries := 0, 0
	degraded := false
	for {
		attempts++
		st, err := dev.Run(disp)
		if err == nil {
			st.Attempts = attempts
			st.Degraded = degraded
			return st, nil
		}
		transient := faults.IsTransient(err)
		hung := errors.Is(err, faults.ErrWatchdogTimeout) || errors.Is(err, faults.ErrKernelHang)
		switch {
		case snap != nil && transient && retries < pol.MaxRetries:
			retries++
			mRetries.Inc()
			restore()
		case snap != nil && pol.Degrade && !degraded && (hung || transient):
			ddev, derr := q.ctx.degradedDevice()
			if derr != nil {
				return st, err
			}
			dev = ddev
			degraded = true
			mDegradedRuns.Inc()
			retries = 0
			restore()
		default:
			st.Attempts = attempts
			st.Degraded = degraded
			return st, err
		}
	}
}

// snapshot copies every surface into the queue's snapshot storage and
// returns it, one slice per surface. The storage is reused: each slot
// keeps the largest copy it has held, so an armed dispatch allocates
// only when a surface outgrows its slot. The result is valid until the
// next call.
func (q *Queue) snapshot(surfs []*device.Buffer) [][]byte {
	for len(q.snap) < len(surfs) {
		q.snap = append(q.snap, nil)
	}
	for i, s := range surfs {
		q.snap[i] = append(q.snap[i][:0], s.Bytes()...)
	}
	return q.snap[:len(surfs)]
}
