package detsim

import (
	"fmt"
	"sync"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

// This file is the single recording walk both Run (simulate) and
// Capture (checkpoint) drive: it owns the object tables (buffers,
// programs, kernels, live argument bindings), validates every
// host-side data movement against buffer bounds, and compiles recorded
// programs through a process-wide content-addressed cache. The drivers
// differ only in their hooks — how an enqueue is executed and whether
// host events are recorded.

// launch describes one kernel enqueue the walker is about to execute.
// Args and Surfaces are the kernel object's live binding slices — a
// later SetKernelArg mutates them in place, so hooks that retain launch
// state must copy.
type launch struct {
	Invocation int // enqueue sequence number, starting at 0
	CallIdx    int // index into rec.Calls
	IR         *kernel.Kernel
	Bin        *jit.Binary
	Args       []uint32
	Surfaces   []*device.Buffer
	SurfIDs    []int // recording buffer ID per surface slot
	GWS        int
}

// walkHooks customizes a recording walk. The walker maintains object
// state and applies host-side data movement itself; beforeWrite and
// beforeCopy fire after bounds validation but before the bytes move,
// onCreate fires after a buffer exists, and onLaunch must execute the
// dispatch (the walker never runs kernels itself). Nil hooks are
// skipped, except onLaunch, which is required.
type walkHooks struct {
	onCreate    func(id int, b *device.Buffer, c *cl.APICall) error
	beforeWrite func(c *cl.APICall, dst *device.Buffer) error
	beforeCopy  func(c *cl.APICall, src, dst *device.Buffer) error
	onLaunch    func(l *launch) error
}

// walkRecording replays the host call stream into buffers, dispatching
// device work through the hooks. Errors from the walker's own
// validation are prefixed with the call index; hook errors pass through
// unwrapped so drivers control their messages. Recordings whose
// binaries were translated are refused: the simulator compiles the
// recorded IR and has no translation stage.
func walkRecording(rec *cofluent.Recording, buffers map[int]*device.Buffer, h walkHooks) error {
	if rec.Translate != nil {
		return fmt.Errorf("detsim: recording %s was translated to %s, which the simulator cannot reproduce: %w",
			rec.App, *rec.Translate, faults.ErrBadConfig)
	}
	programs := make(map[int]map[string]*jit.Binary)
	kernelIR := make(map[int]*kernel.Kernel) // kernel object ID -> IR
	kernelBin := make(map[int]*jit.Binary)   // kernel object ID -> binary
	kargs := make(map[int][]uint32)          // kernel object ID -> scalar args
	ksurfs := make(map[int][]*device.Buffer) // kernel object ID -> surfaces
	ksurfIDs := make(map[int][]int)          // kernel object ID -> surface buffer IDs

	invocation := 0
	for i := range rec.Calls {
		c := &rec.Calls[i]
		switch c.Name {
		case cl.CallCreateBuffer:
			b, err := device.NewBuffer(c.Size)
			if err != nil {
				return fmt.Errorf("detsim: call %d: %w: %w", i, faults.ErrBadRecording, err)
			}
			buffers[c.Buffer] = b
			if h.onCreate != nil {
				if err := h.onCreate(c.Buffer, b, c); err != nil {
					return err
				}
			}
		case cl.CallBuildProgram:
			if c.Program < 0 || c.Program >= len(rec.Programs) {
				return fmt.Errorf("detsim: call %d: program %d not in recording: %w", i, c.Program, faults.ErrBadRecording)
			}
			bins, err := compileCached(rec.Programs[c.Program])
			if err != nil {
				return fmt.Errorf("detsim: call %d: %w", i, err)
			}
			programs[c.Program] = bins
		case cl.CallCreateKernel:
			bins, ok := programs[c.Program]
			if !ok {
				return fmt.Errorf("detsim: call %d: kernel %s of unbuilt program %d: %w", i, c.Kernel, c.Program, faults.ErrBadRecording)
			}
			ir := rec.Programs[c.Program].Kernel(c.Kernel)
			if ir == nil || bins[c.Kernel] == nil {
				return fmt.Errorf("detsim: call %d: unknown kernel %s: %w", i, c.Kernel, faults.ErrBadRecording)
			}
			kernelIR[c.KID] = ir
			kernelBin[c.KID] = bins[c.Kernel]
			kargs[c.KID] = make([]uint32, ir.NumArgs)
			ksurfs[c.KID] = make([]*device.Buffer, ir.NumSurfaces)
			ksurfIDs[c.KID] = make([]int, ir.NumSurfaces)
		case cl.CallSetKernelArg:
			ir, ok := kernelIR[c.KID]
			if !ok {
				return fmt.Errorf("detsim: call %d: arg on unknown kernel %d: %w", i, c.KID, faults.ErrBadRecording)
			}
			if c.ArgIdx >= ir.NumArgs {
				b, ok := buffers[c.Buffer]
				if !ok {
					return fmt.Errorf("detsim: call %d: unknown buffer %d: %w", i, c.Buffer, faults.ErrBadRecording)
				}
				slot := c.ArgIdx - ir.NumArgs
				if slot < 0 || slot >= len(ksurfs[c.KID]) {
					return fmt.Errorf("detsim: call %d: surface slot %d out of range (%d bound): %w",
						i, slot, len(ksurfs[c.KID]), faults.ErrBadRecording)
				}
				ksurfs[c.KID][slot] = b
				ksurfIDs[c.KID][slot] = c.Buffer
			} else {
				if c.ArgIdx < 0 {
					return fmt.Errorf("detsim: call %d: negative arg index %d: %w", i, c.ArgIdx, faults.ErrBadRecording)
				}
				kargs[c.KID][c.ArgIdx] = c.ArgVal
			}
		case cl.CallEnqueueWriteBuffer:
			b, ok := buffers[c.Buffer]
			if !ok {
				return fmt.Errorf("detsim: call %d: write to unknown buffer %d: %w", i, c.Buffer, faults.ErrBadRecording)
			}
			// A hostile or torn recording can carry any offset; reject
			// instead of panicking on the slice (or silently truncating).
			if c.Offset < 0 || c.Offset > b.Size() || len(c.Payload) > b.Size()-c.Offset {
				return fmt.Errorf("detsim: call %d: write [%d, %d+%d) out of bounds (buffer %d is %d bytes): %w",
					i, c.Offset, c.Offset, len(c.Payload), c.Buffer, b.Size(), faults.ErrBadRecording)
			}
			if h.beforeWrite != nil {
				if err := h.beforeWrite(c, b); err != nil {
					return err
				}
			}
			copy(b.Bytes()[c.Offset:], c.Payload)
		case cl.CallEnqueueCopyBuffer, cl.CallEnqueueCopyImgToBuf:
			src, dst := buffers[c.Buffer], buffers[c.Buffer2]
			if src == nil || dst == nil {
				return fmt.Errorf("detsim: call %d: copy with unknown buffer: %w", i, faults.ErrBadRecording)
			}
			if c.Size < 0 ||
				c.Offset < 0 || c.Offset > src.Size() || c.Size > src.Size()-c.Offset ||
				c.Offset2 < 0 || c.Offset2 > dst.Size() || c.Size > dst.Size()-c.Offset2 {
				return fmt.Errorf("detsim: call %d: copy src [%d, %d+%d) dst [%d, %d+%d) out of bounds (src %d, dst %d bytes): %w",
					i, c.Offset, c.Offset, c.Size, c.Offset2, c.Offset2, c.Size, src.Size(), dst.Size(), faults.ErrBadRecording)
			}
			if h.beforeCopy != nil {
				if err := h.beforeCopy(c, src, dst); err != nil {
					return err
				}
			}
			copy(dst.Bytes()[c.Offset2:c.Offset2+c.Size], src.Bytes()[c.Offset:c.Offset+c.Size])
		case cl.CallEnqueueNDRangeKernel:
			ir, ok := kernelIR[c.KID]
			if !ok {
				return fmt.Errorf("detsim: call %d: enqueue of unknown kernel %d: %w", i, c.KID, faults.ErrBadRecording)
			}
			// Dispatch is synchronous and the interpreters never append to
			// these slices, so the kernel's live bindings are passed
			// directly instead of copied per enqueue.
			if err := h.onLaunch(&launch{
				Invocation: invocation,
				CallIdx:    i,
				IR:         ir,
				Bin:        kernelBin[c.KID],
				Args:       kargs[c.KID],
				Surfaces:   ksurfs[c.KID],
				SurfIDs:    ksurfIDs[c.KID],
				GWS:        c.GWS,
			}); err != nil {
				return err
			}
			invocation++
		default:
			// Host-only calls carry no device work.
		}
	}
	return nil
}

// compileCache memoizes jit.CompileProgram results across Run and
// Capture calls, keyed by program content (kernel names + executable
// fingerprints) — the detsim-side analogue of the device's
// decoded-binary cache. Compiled binaries are immutable, so entries are
// shared freely; the map is guarded for the parallel snippet-replay
// workers, each of which owns a private Simulator but shares this
// process-wide cache.
type compileCache struct {
	mu     sync.RWMutex
	m      map[string]map[string]*jit.Binary
	hits   uint64
	misses uint64
}

var progCache = &compileCache{m: make(map[string]map[string]*jit.Binary)}

// programKey content-addresses a program: each kernel's name and
// executable fingerprint, length-delimited via jit.Key.
func programKey(p *kernel.Program) (string, error) {
	parts := make([][]byte, 0, 2*len(p.Kernels))
	for _, k := range p.Kernels {
		fp, err := k.Fingerprint()
		if err != nil {
			return "", err
		}
		parts = append(parts, []byte(k.Name), []byte(fp))
	}
	return jit.Key(parts...), nil
}

// compileCached returns the program's compiled binaries, compiling at
// most once per distinct program content in the process lifetime.
func compileCached(p *kernel.Program) (map[string]*jit.Binary, error) {
	key, err := programKey(p)
	if err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	progCache.mu.RLock()
	bins, ok := progCache.m[key]
	progCache.mu.RUnlock()
	if ok {
		progCache.mu.Lock()
		progCache.hits++
		progCache.mu.Unlock()
		mCompileCacheHits.Inc()
		return bins, nil
	}
	bins, err = jit.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	progCache.mu.Lock()
	progCache.misses++
	// Concurrent compilers racing the same key are harmless: the binaries
	// are a deterministic function of the content address.
	progCache.m[key] = bins
	progCache.mu.Unlock()
	mCompileCacheMisses.Inc()
	return bins, nil
}

// CompileCacheStats reports the program-compile cache counters:
// lookups served from cache, compilations performed, and distinct
// programs held.
func CompileCacheStats() (hits, misses uint64, entries int) {
	progCache.mu.RLock()
	defer progCache.mu.RUnlock()
	return progCache.hits, progCache.misses, len(progCache.m)
}

// ResetCompileCache drops every cached program and zeroes the counters
// (tests and benchmark baselines).
func ResetCompileCache() {
	progCache.mu.Lock()
	progCache.m = make(map[string]map[string]*jit.Binary)
	progCache.hits, progCache.misses = 0, 0
	progCache.mu.Unlock()
}
