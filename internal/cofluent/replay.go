package cofluent

import (
	"fmt"
	"sync/atomic"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
	"gtpin/internal/xlate"
)

// Recording captures everything needed to re-execute an application's
// OpenCL interaction deterministically: the full API call stream
// (including write-buffer payloads), the kernel IR of every program it
// built, and the dialect the driver translated compiled kernels to, if
// any. The paper uses CoFluent recordings to guarantee that the kernel
// calls in selected intervals are "present and findable in future
// executions" despite host-side non-determinism.
type Recording struct {
	App      string
	Calls    []cl.APICall
	Programs []*kernel.Program
	// Translate, when set, is the dialect every compiled kernel was
	// binary-translated to; Replay registers the same translation.
	Translate *isa.Dialect

	// fp is the first Fingerprint result, shared by every later call.
	fp atomic.Pointer[fingerprint]
}

// Record finalizes a recording from a traced execution. programs must be
// the IR of each program the application created, in creation order.
func Record(app string, t *Tracer, programs []*kernel.Program) (*Recording, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	calls := make([]cl.APICall, len(t.calls))
	copy(calls, t.calls)
	return &Recording{App: app, Calls: calls, Programs: programs}, nil
}

// Replay re-executes the recorded API stream against a device, returning
// a tracer observing the replayed execution. The replay issues the same
// calls in the same order with the same data; only device timing differs
// (e.g. a different jitter seed, frequency, or architecture generation).
//
// Additional interceptors (such as a GT-Pin instance) can be attached by
// the setup callback, which runs after context creation and before any
// replayed call. The recording's own translation hook is registered
// first, so hooks added by setup see the translated binaries.
func (r *Recording) Replay(dev *device.Device, setup func(*cl.Context) error) (*Tracer, error) {
	ctx := cl.NewContext(dev)
	if r.Translate != nil {
		ctx.AddBuildHook(xlate.BuildHook(*r.Translate))
	}
	t := Attach(ctx)
	if setup != nil {
		if err := setup(ctx); err != nil {
			return nil, fmt.Errorf("cofluent: replay setup: %w", err)
		}
	}
	q := (*cl.Queue)(nil)
	buffers := make(map[int]*cl.Buffer)
	programs := make(map[int]*cl.Program)
	kernels := make(map[int]*cl.Kernel)
	numArgs := make(map[int]int) // kernel ID -> scalar arg count

	needQueue := func() *cl.Queue {
		if q == nil {
			q = ctx.CreateQueue()
		}
		return q
	}

	for i := range r.Calls {
		c := &r.Calls[i]
		var err error
		switch c.Name {
		case cl.CallGetPlatformIDs:
			// EmitSetupCalls covers the triple; emit via the first call
			// and skip its companions below.
			ctx.EmitSetupCalls()
		case cl.CallGetDeviceIDs, cl.CallCreateContext:
			// covered by EmitSetupCalls
		case cl.CallGetDeviceInfo:
			ctx.QueryDeviceInfo()
		case cl.CallGetEventProfilingInfo:
			ctx.QueryEventProfilingInfo()
		case cl.CallCreateCommandQueue:
			needQueue()
		case cl.CallCreateBuffer:
			var b *cl.Buffer
			b, err = ctx.CreateBuffer(c.Size)
			buffers[c.Buffer] = b
		case cl.CallCreateProgram:
			if c.Program >= len(r.Programs) {
				return nil, fmt.Errorf("cofluent: replay: program %d not in recording", c.Program)
			}
			programs[c.Program] = ctx.CreateProgram(r.Programs[c.Program])
		case cl.CallBuildProgram:
			p, ok := programs[c.Program]
			if !ok {
				return nil, fmt.Errorf("cofluent: replay: build of unknown program %d", c.Program)
			}
			err = p.Build()
		case cl.CallCreateKernel:
			p, ok := programs[c.Program]
			if !ok {
				return nil, fmt.Errorf("cofluent: replay: kernel %s of unknown program %d", c.Kernel, c.Program)
			}
			var k *cl.Kernel
			k, err = p.CreateKernel(c.Kernel)
			if err == nil {
				kernels[c.KID] = k
				numArgs[c.KID] = r.Programs[c.Program].Kernel(c.Kernel).NumArgs
			}
		case cl.CallSetKernelArg:
			k, ok := kernels[c.KID]
			if !ok {
				return nil, fmt.Errorf("cofluent: replay: arg on unknown kernel %d", c.KID)
			}
			if na := numArgs[c.KID]; c.ArgIdx >= na {
				b, ok := buffers[c.Buffer]
				if !ok {
					return nil, fmt.Errorf("cofluent: replay: unknown buffer %d", c.Buffer)
				}
				err = k.SetBuffer(c.ArgIdx-na, b)
			} else {
				err = k.SetArg(c.ArgIdx, c.ArgVal)
			}
		case cl.CallEnqueueNDRangeKernel:
			k, ok := kernels[c.KID]
			if !ok {
				return nil, fmt.Errorf("cofluent: replay: enqueue of unknown kernel %d", c.KID)
			}
			err = needQueue().EnqueueNDRangeKernel(k, c.GWS)
		case cl.CallEnqueueWriteBuffer:
			err = needQueue().EnqueueWriteBuffer(buffers[c.Buffer], c.Offset, c.Payload)
		case cl.CallEnqueueReadBuffer:
			err = needQueue().EnqueueReadBuffer(buffers[c.Buffer], c.Offset, make([]byte, c.Size))
		case cl.CallEnqueueReadImage:
			err = needQueue().EnqueueReadImage(buffers[c.Buffer], c.Offset, make([]byte, c.Size))
		case cl.CallEnqueueCopyBuffer:
			err = needQueue().EnqueueCopyBuffer(buffers[c.Buffer], buffers[c.Buffer2], c.Offset, c.Offset2, c.Size)
		case cl.CallEnqueueCopyImgToBuf:
			err = needQueue().EnqueueCopyImageToBuffer(buffers[c.Buffer], buffers[c.Buffer2], c.Offset, c.Offset2, c.Size)
		case cl.CallFinish:
			err = needQueue().Finish()
		case cl.CallFlush:
			err = needQueue().Flush()
		case cl.CallWaitForEvents:
			err = needQueue().WaitForEvents()
		case cl.CallReleaseMemObject:
			ctx.ReleaseBuffer(buffers[c.Buffer])
		case cl.CallReleaseKernel:
			if k, ok := kernels[c.KID]; ok {
				k.Release()
			}
		case cl.CallReleaseProgram:
			if p, ok := programs[c.Program]; ok {
				p.Release()
			}
		default:
			return nil, fmt.Errorf("cofluent: replay: unsupported call %s", c.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("cofluent: replay call %d (%s): %w", i, c.Name, err)
		}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}
