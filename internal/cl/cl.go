package cl

import (
	"fmt"
	"sort"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

// BuildHook intercepts the driver JIT: it receives each kernel binary as
// the JIT produces it and returns the binary the device should actually
// load. The GT-Pin binary rewriter registers itself as a build hook
// (Figure 1 of the paper: the binary is "diverted to a GT-Pin binary
// re-writer" before reaching the GPU).
type BuildHook func(bin *jit.Binary) (*jit.Binary, error)

// Context owns a device, the objects created against it, and the
// interception points tools attach to.
type Context struct {
	dev          *device.Device
	degraded     *device.Device // lazy graceful-degradation fallback
	resilience   Resilience
	interceptors []Interceptor
	buildHooks   []BuildHook

	seq         int
	invocations int
	programs    []*Program
	buffers     []*Buffer
	kernels     []*Kernel

	queue *Queue

	// traceBuf, when set, is appended to every dispatch's binding table —
	// the driver-level change GT-Pin's initialization makes so that
	// instrumented binaries can reach their trace buffer.
	traceBuf *device.Buffer
}

// SetTraceBuffer installs the GT-Pin trace buffer: a surface the driver
// binds after each kernel's own surfaces on every dispatch.
func (ctx *Context) SetTraceBuffer(b *device.Buffer) { ctx.traceBuf = b }

// NewContext creates a context on the device. No API calls are emitted
// yet, so tools (GT-Pin, CoFluent) attached immediately after creation
// observe the complete call stream; applications then issue their setup
// calls via EmitSetupCalls or individual methods.
func NewContext(dev *device.Device) *Context {
	return &Context{dev: dev, resilience: DefaultResilience()}
}

// EmitSetupCalls emits the platform/device/context setup sequence a real
// host performs before creating any objects.
func (ctx *Context) EmitSetupCalls() {
	ctx.emit(&APICall{Name: CallGetPlatformIDs})
	ctx.emit(&APICall{Name: CallGetDeviceIDs})
	ctx.emit(&APICall{Name: CallCreateContext})
}

// AddInterceptor registers an API observer. Interceptors added before any
// other call see the full stream.
func (ctx *Context) AddInterceptor(i Interceptor) { ctx.interceptors = append(ctx.interceptors, i) }

// AddBuildHook registers a JIT diversion hook; hooks run in registration
// order on each kernel binary at program build time.
func (ctx *Context) AddBuildHook(h BuildHook) { ctx.buildHooks = append(ctx.buildHooks, h) }

func (ctx *Context) emit(call *APICall) {
	call.Seq = ctx.seq
	ctx.seq++
	call.Kind = KindOf(call.Name)
	observeAPICall(call.Kind)
	for _, i := range ctx.interceptors {
		i.OnAPICall(call)
	}
}

// QueryDeviceInfo emits a device-information query ("other" API traffic;
// real hosts issue many of these during setup).
func (ctx *Context) QueryDeviceInfo() {
	ctx.emit(&APICall{Name: CallGetDeviceInfo})
}

// QueryEventProfilingInfo emits a profiling-info query for the last event.
func (ctx *Context) QueryEventProfilingInfo() {
	ctx.emit(&APICall{Name: CallGetEventProfilingInfo})
}

// Buffer is a device memory object created on a context.
type Buffer struct {
	ID  int
	buf *device.Buffer
}

// Device returns the underlying device surface.
func (b *Buffer) Device() *device.Buffer { return b.buf }

// Size returns the buffer capacity in bytes.
func (b *Buffer) Size() int { return b.buf.Size() }

// CreateBuffer allocates a device buffer of the given size.
func (ctx *Context) CreateBuffer(size int) (*Buffer, error) {
	db, err := device.NewBuffer(size)
	if err != nil {
		return nil, fmt.Errorf("cl: %w", err)
	}
	b := &Buffer{ID: len(ctx.buffers), buf: db}
	ctx.buffers = append(ctx.buffers, b)
	ctx.emit(&APICall{Name: CallCreateBuffer, Buffer: b.ID, Size: size})
	return b, nil
}

// ReleaseBuffer emits the release call for b. The storage itself is
// garbage collected.
func (ctx *Context) ReleaseBuffer(b *Buffer) {
	ctx.emit(&APICall{Name: CallReleaseMemObject, Buffer: b.ID})
}

// Program is a program object: kernel IR plus, after Build, the
// (possibly instrumented) device binaries.
type Program struct {
	ID   int
	ctx  *Context
	ir   *kernel.Program
	bins map[string]*jit.Binary
}

// CreateProgram creates a program from kernel IR (the analogue of
// clCreateProgramWithSource; our "source" is already IR).
func (ctx *Context) CreateProgram(ir *kernel.Program) *Program {
	p := &Program{ID: len(ctx.programs), ctx: ctx, ir: ir}
	ctx.programs = append(ctx.programs, p)
	ctx.emit(&APICall{Name: CallCreateProgram, Program: p.ID})
	return p
}

// Build JIT-compiles every kernel and runs the registered build hooks on
// each binary, in order — the point where GT-Pin instruments the code.
// Transient JIT failures (faults.ErrJITTransient) are retried under the
// context's resilience policy before being surfaced.
func (p *Program) Build() error {
	p.ctx.emit(&APICall{Name: CallBuildProgram, Program: p.ID})
	pol := p.ctx.resilience
	var err error
	for attempt := 0; ; attempt++ {
		var bins map[string]*jit.Binary
		bins, err = p.buildOnce()
		if err == nil {
			p.bins = bins
			return nil
		}
		if !faults.IsTransient(err) || attempt >= pol.MaxRetries {
			return err
		}
	}
}

// buildOnce is one JIT attempt: compile, consult the fault injector, run
// the build hooks. Kernels are visited in sorted-name order so the
// injector's per-kernel draw counts advance identically on every run.
func (p *Program) buildOnce() (map[string]*jit.Binary, error) {
	bins, err := jit.CompileProgram(p.ir)
	if err != nil {
		return nil, fmt.Errorf("cl: build program %d: %w", p.ID, err)
	}
	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)
	// Consult the injector for every kernel before any build hook runs:
	// a transient JIT failure must abort the attempt with no hook side
	// effects, so a retry re-runs the hooks (instrumentation, rewriting)
	// from a clean slate.
	inj := p.ctx.dev.FaultInjector()
	for _, name := range names {
		if inj.JITFault(name) {
			return nil, fmt.Errorf("cl: build program %d: jit of kernel %s: %w", p.ID, name, faults.ErrJITTransient)
		}
	}
	for _, name := range names {
		bin := bins[name]
		for _, h := range p.ctx.buildHooks {
			bin, err = h(bin)
			if err != nil {
				return nil, fmt.Errorf("cl: build hook on kernel %s: %w", name, err)
			}
		}
		bins[name] = bin
	}
	return bins, nil
}

// Release emits the program release call.
func (p *Program) Release() {
	p.ctx.emit(&APICall{Name: CallReleaseProgram, Program: p.ID})
}

// Kernel is a kernel object: a named entry point plus its currently-set
// arguments.
type Kernel struct {
	ID   int
	prog *Program
	name string
	bin  *jit.Binary

	args     []uint32
	surfaces []*Buffer
}

// CreateKernel creates a kernel object for the named kernel. The program
// must have been built.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	if p.bins == nil {
		return nil, fmt.Errorf("cl: program %d not built", p.ID)
	}
	bin, ok := p.bins[name]
	if !ok {
		return nil, fmt.Errorf("cl: program %d has no kernel %q", p.ID, name)
	}
	ir := p.ir.Kernel(name)
	k := &Kernel{
		ID:       len(p.ctx.kernels),
		prog:     p,
		name:     name,
		bin:      bin,
		args:     make([]uint32, ir.NumArgs),
		surfaces: make([]*Buffer, ir.NumSurfaces),
	}
	p.ctx.kernels = append(p.ctx.kernels, k)
	p.ctx.emit(&APICall{Name: CallCreateKernel, Program: p.ID, Kernel: name, KID: k.ID})
	return k, nil
}

// SetArg sets scalar argument i (the analogue of clSetKernelArg with a
// scalar value).
func (k *Kernel) SetArg(i int, v uint32) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("cl: kernel %s: arg index %d out of range (%d args)", k.name, i, len(k.args))
	}
	k.args[i] = v
	k.prog.ctx.emit(&APICall{Name: CallSetKernelArg, Kernel: k.name, KID: k.ID, ArgIdx: i, ArgVal: v})
	return nil
}

// SetBuffer binds a buffer to surface slot s (the analogue of
// clSetKernelArg with a memory object).
func (k *Kernel) SetBuffer(s int, b *Buffer) error {
	if s < 0 || s >= len(k.surfaces) {
		return fmt.Errorf("cl: kernel %s: surface index %d out of range (%d surfaces)", k.name, s, len(k.surfaces))
	}
	k.surfaces[s] = b
	k.prog.ctx.emit(&APICall{Name: CallSetKernelArg, Kernel: k.name, KID: k.ID,
		ArgIdx: len(k.args) + s, Buffer: b.ID})
	return nil
}

// Release emits the kernel release call.
func (k *Kernel) Release() {
	k.prog.ctx.emit(&APICall{Name: CallReleaseKernel, Kernel: k.name, KID: k.ID})
}
