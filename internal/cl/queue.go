package cl

import (
	"fmt"

	"gtpin/internal/device"
	"gtpin/internal/faults"
)

// Queue is an in-order command queue. EnqueueNDRangeKernel defers
// execution; the seven synchronization calls drain the queue, executing
// pending kernels on the device and firing completion events — the
// OpenCL asynchrony the paper's interval rules derive from.
type Queue struct {
	ctx     *Context
	pending []pendingExec
	// snapPages and snapData are the pre-dispatch memory snapshot
	// storage (resilience.go): each allocated page of each surface, and
	// the pages' bytes end to end, reused by every armed dispatch.
	snapPages []snapPage
	snapData  []byte
}

type pendingExec struct {
	enqueueSeq int
	kernel     *Kernel
	gws        int
	args       []uint32  // snapshot at enqueue
	surfaces   []*Buffer // snapshot at enqueue
	event      *Event
}

// Event identifies one enqueued kernel invocation. After a
// synchronization call completes the invocation, the event carries its
// profiling information (the analogue of clGetEventProfilingInfo).
type Event struct {
	kernel string
	done   bool
	stats  device.ExecStats
	err    error // set when the invocation failed past the resilience policy
}

// Kernel returns the kernel name the event tracks.
func (e *Event) Kernel() string { return e.kernel }

// Complete reports whether the invocation has executed successfully.
func (e *Event) Complete() bool { return e.done }

// Err returns the classified execution error of a failed invocation, or
// nil if the invocation completed (or has not executed yet).
func (e *Event) Err() error { return e.err }

// ProfilingTimeNs returns the invocation's modelled execution time. It
// fails with faults.ErrEventNotComplete if the event has not completed
// (no synchronization call has drained the queue yet, or the invocation
// failed).
func (e *Event) ProfilingTimeNs() (float64, error) {
	if !e.done {
		return 0, fmt.Errorf("cl: event for kernel %s: %w", e.kernel, faults.ErrEventNotComplete)
	}
	return e.stats.TimeNs, nil
}

// Stats returns the invocation's execution statistics; the boolean is
// false until the event completes.
func (e *Event) Stats() (device.ExecStats, bool) {
	return e.stats, e.done
}

// CreateQueue creates the context's command queue. A context has a single
// in-order queue, matching the paper's applications.
func (ctx *Context) CreateQueue() *Queue {
	if ctx.queue == nil {
		ctx.queue = &Queue{ctx: ctx}
		ctx.emit(&APICall{Name: CallCreateCommandQueue})
	}
	return ctx.queue
}

// EnqueueNDRangeKernel dispatches the kernel over gws work-items. The
// kernel's current arguments are snapshotted; execution is deferred until
// the next synchronization call.
func (q *Queue) EnqueueNDRangeKernel(k *Kernel, gws int) error {
	_, err := q.EnqueueNDRangeKernelWithEvent(k, gws)
	return err
}

// EnqueueNDRangeKernelWithEvent is EnqueueNDRangeKernel returning an
// event that completes — and carries profiling information — once a
// synchronization call executes the invocation.
func (q *Queue) EnqueueNDRangeKernelWithEvent(k *Kernel, gws int) (*Event, error) {
	if gws <= 0 {
		return nil, fmt.Errorf("cl: enqueue %s: global work size %d", k.name, gws)
	}
	for s, b := range k.surfaces {
		if b == nil {
			return nil, fmt.Errorf("cl: enqueue %s: surface %d not set", k.name, s)
		}
	}
	seq := q.ctx.seq
	q.ctx.emit(&APICall{Name: CallEnqueueNDRangeKernel, Kernel: k.name, KID: k.ID, GWS: gws})
	args := make([]uint32, len(k.args))
	copy(args, k.args)
	surfaces := make([]*Buffer, len(k.surfaces))
	copy(surfaces, k.surfaces)
	ev := &Event{kernel: k.name}
	q.pending = append(q.pending, pendingExec{
		enqueueSeq: seq, kernel: k, gws: gws, args: args, surfaces: surfaces, event: ev,
	})
	return ev, nil
}

// drain executes all pending kernels in order on the device, each under
// the resilience policy, and notifies interceptors of each completion.
//
// On a failure that survives the policy, the drain stops at the failing
// kernel: earlier invocations are complete (their events fired), the
// failing kernel's pending entry is dropped, and later enqueues remain
// pending for a subsequent synchronization call — the in-order analogue
// of a command queue whose failed command is discarded. The returned
// *KernelExecError identifies the failing kernel and enqueue sequence.
func (q *Queue) drain() error {
	for len(q.pending) > 0 {
		p := q.pending[0]
		q.pending = q.pending[1:]
		st, err := q.executeResilient(&p)
		if err != nil {
			kerr := &KernelExecError{
				Kernel:        p.kernel.name,
				EnqueueSeq:    p.enqueueSeq,
				InvocationSeq: q.ctx.invocations,
				Attempts:      st.Attempts,
				Degraded:      st.Degraded,
				Err:           err,
			}
			if p.event != nil {
				p.event.err = kerr
			}
			return kerr
		}
		if p.event != nil {
			p.event.stats = st
			p.event.done = true
		}
		comp := &KernelCompletion{
			InvocationSeq: q.ctx.invocations,
			EnqueueSeq:    p.enqueueSeq,
			Kernel:        p.kernel.name,
			GWS:           p.gws,
			Args:          p.args,
			Stats:         st,
		}
		q.ctx.invocations++
		mCompletions.Inc()
		for _, i := range q.ctx.interceptors {
			i.OnKernelComplete(comp)
		}
	}
	return nil
}

// Finish drains the queue (clFinish).
func (q *Queue) Finish() error {
	q.ctx.emit(&APICall{Name: CallFinish})
	return q.drain()
}

// Flush drains the queue (clFlush; a true flush only submits, but with a
// synchronous device model submission and completion coincide).
func (q *Queue) Flush() error {
	q.ctx.emit(&APICall{Name: CallFlush})
	return q.drain()
}

// WaitForEvents blocks until the given events complete (clWaitForEvents);
// with no arguments it waits for all previously enqueued work. The queue
// is in-order, so any wait drains everything ahead of it.
func (q *Queue) WaitForEvents(events ...*Event) error {
	q.ctx.emit(&APICall{Name: CallWaitForEvents})
	if err := q.drain(); err != nil {
		return err
	}
	for _, e := range events {
		if e != nil && !e.done {
			return fmt.Errorf("cl: waited event for kernel %s: %w", e.kernel, faults.ErrEventNotComplete)
		}
	}
	return nil
}

// EnqueueWriteBuffer copies host data into a buffer. The queue is in
// order, so the kernels enqueued ahead of the write run first and see
// the buffer as it was, as detsim's replay of the recording runs them:
// the write drains the queue, returning a pending kernel's failure as
// EnqueueReadBuffer does, and then applies the transfer. Writes are
// still not synchronization points in the paper's taxonomy: interval
// boundaries come from the call stream, which the drain leaves as it is.
func (q *Queue) EnqueueWriteBuffer(b *Buffer, off int, data []byte) error {
	if off < 0 || off+len(data) > b.Size() {
		return fmt.Errorf("cl: write buffer %d: range [%d,%d) out of bounds (size %d)", b.ID, off, off+len(data), b.Size())
	}
	payload := make([]byte, len(data))
	copy(payload, data)
	q.ctx.emit(&APICall{Name: CallEnqueueWriteBuffer, Buffer: b.ID, Offset: off, Size: len(data), Payload: payload})
	if err := q.drain(); err != nil {
		return err
	}
	_, err := b.buf.WriteAt(data, int64(off))
	return err
}

// EnqueueReadBuffer drains the queue and copies buffer contents to dst
// (clEnqueueReadBuffer, a synchronization call).
func (q *Queue) EnqueueReadBuffer(b *Buffer, off int, dst []byte) error {
	if off < 0 || off+len(dst) > b.Size() {
		return fmt.Errorf("cl: read buffer %d: range [%d,%d) out of bounds (size %d)", b.ID, off, off+len(dst), b.Size())
	}
	q.ctx.emit(&APICall{Name: CallEnqueueReadBuffer, Buffer: b.ID, Offset: off, Size: len(dst)})
	if err := q.drain(); err != nil {
		return err
	}
	_, err := b.buf.ReadAt(dst, int64(off))
	return err
}

// EnqueueCopyBuffer drains the queue and copies n bytes between buffers
// (clEnqueueCopyBuffer, a synchronization call).
func (q *Queue) EnqueueCopyBuffer(src, dst *Buffer, srcOff, dstOff, n int) error {
	if n < 0 || srcOff < 0 || srcOff+n > src.Size() {
		return fmt.Errorf("cl: copy buffer: source range [%d,%d) out of bounds (size %d)", srcOff, srcOff+n, src.Size())
	}
	if dstOff < 0 || dstOff+n > dst.Size() {
		return fmt.Errorf("cl: copy buffer: dest range [%d,%d) out of bounds (size %d)", dstOff, dstOff+n, dst.Size())
	}
	q.ctx.emit(&APICall{Name: CallEnqueueCopyBuffer, Buffer: src.ID, Buffer2: dst.ID, Offset: srcOff, Offset2: dstOff, Size: n})
	if err := q.drain(); err != nil {
		return err
	}
	return dst.buf.CopyFrom(src.buf, srcOff, dstOff, n)
}

// EnqueueReadImage drains the queue and reads image data into dst.
// Images are modelled as buffers; the distinct call name matters because
// it is one of the seven synchronization calls.
func (q *Queue) EnqueueReadImage(img *Buffer, off int, dst []byte) error {
	if off < 0 || off+len(dst) > img.Size() {
		return fmt.Errorf("cl: read image %d: range [%d,%d) out of bounds (size %d)", img.ID, off, off+len(dst), img.Size())
	}
	q.ctx.emit(&APICall{Name: CallEnqueueReadImage, Buffer: img.ID, Offset: off, Size: len(dst)})
	if err := q.drain(); err != nil {
		return err
	}
	_, err := img.buf.ReadAt(dst, int64(off))
	return err
}

// EnqueueCopyImageToBuffer drains the queue and copies image data into a
// buffer (clEnqueueCopyImageToBuffer, a synchronization call).
func (q *Queue) EnqueueCopyImageToBuffer(img, dst *Buffer, srcOff, dstOff, n int) error {
	if n < 0 || srcOff < 0 || srcOff+n > img.Size() {
		return fmt.Errorf("cl: copy image: source range [%d,%d) out of bounds (size %d)", srcOff, srcOff+n, img.Size())
	}
	if dstOff < 0 || dstOff+n > dst.Size() {
		return fmt.Errorf("cl: copy image: dest range [%d,%d) out of bounds (size %d)", dstOff, dstOff+n, dst.Size())
	}
	q.ctx.emit(&APICall{Name: CallEnqueueCopyImgToBuf, Buffer: img.ID, Buffer2: dst.ID, Offset: srcOff, Offset2: dstOff, Size: n})
	if err := q.drain(); err != nil {
		return err
	}
	return dst.buf.CopyFrom(img.buf, srcOff, dstOff, n)
}

// Pending returns the number of enqueued, not-yet-executed kernels.
func (q *Queue) Pending() int { return len(q.pending) }
