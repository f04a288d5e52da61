package detsim

import (
	"fmt"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
	"gtpin/internal/memo"
)

// This file is the single recording walk both Run (simulate) and
// Capture (checkpoint) drive: it owns the object tables (buffers,
// programs, kernel objects and their live argument bindings), validates
// every host-side data movement against buffer bounds (as snippet replay
// does, through the same functions), and compiles recorded programs
// through a process-wide content-addressed cache. The drivers
// differ only in their hooks — how an enqueue is executed and whether
// host events are recorded.

// launch is one kernel object: its binary, the binary's shared decoded
// kernel, and its live argument bindings, which a SetKernelArg updates
// in place. The walker sets Invocation and GWS before each enqueue's
// onLaunch call, so a hook that retains launch state must copy it.
type launch struct {
	Invocation int // enqueue sequence number, starting at 0
	Kernel     *kernel.Kernel
	Bin        *jit.Binary
	Args       []uint32
	Surfaces   []*device.Buffer
	SurfIDs    []int // recording buffer ID per surface slot
	GWS        int
}

// walkHooks customizes a recording walk. The walker maintains object
// state and applies host-side data movement itself; beforeWrite and
// beforeCopy fire before the bytes move (a move out of bounds then
// fails the walk), onCreate fires after a buffer exists, and onLaunch
// must execute the dispatch (the walker never runs kernels itself). Nil
// hooks are skipped, except onLaunch, which is required.
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
	kernels := make(map[int]*launch) // kernel object ID -> kernel object

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
			bin := bins[c.Kernel]
			if bin == nil {
				return fmt.Errorf("detsim: call %d: unknown kernel %s: %w", i, c.Kernel, faults.ErrBadRecording)
			}
			k, err := bin.Kernel()
			if err != nil {
				return fmt.Errorf("detsim: call %d: %w", i, err)
			}
			kernels[c.KID] = &launch{
				Kernel:   k,
				Bin:      bin,
				Args:     make([]uint32, k.NumArgs),
				Surfaces: make([]*device.Buffer, k.NumSurfaces),
				SurfIDs:  make([]int, k.NumSurfaces),
			}
		case cl.CallSetKernelArg:
			l, ok := kernels[c.KID]
			if !ok {
				return fmt.Errorf("detsim: call %d: arg on unknown kernel %d: %w", i, c.KID, faults.ErrBadRecording)
			}
			if c.ArgIdx >= l.Kernel.NumArgs {
				b, ok := buffers[c.Buffer]
				if !ok {
					return fmt.Errorf("detsim: call %d: unknown buffer %d: %w", i, c.Buffer, faults.ErrBadRecording)
				}
				slot := c.ArgIdx - l.Kernel.NumArgs
				if slot < 0 || slot >= len(l.Surfaces) {
					return fmt.Errorf("detsim: call %d: surface slot %d out of range (%d bound): %w",
						i, slot, len(l.Surfaces), faults.ErrBadRecording)
				}
				l.Surfaces[slot] = b
				l.SurfIDs[slot] = c.Buffer
			} else {
				if c.ArgIdx < 0 {
					return fmt.Errorf("detsim: call %d: negative arg index %d: %w", i, c.ArgIdx, faults.ErrBadRecording)
				}
				l.Args[c.ArgIdx] = c.ArgVal
			}
		case cl.CallEnqueueWriteBuffer:
			b, ok := buffers[c.Buffer]
			if !ok {
				return fmt.Errorf("detsim: call %d: write to unknown buffer %d: %w", i, c.Buffer, faults.ErrBadRecording)
			}
			if h.beforeWrite != nil {
				if err := h.beforeWrite(c, b); err != nil {
					return err
				}
			}
			if err := hostWrite(b, c.Offset, c.Payload); err != nil {
				return fmt.Errorf("detsim: call %d: buffer %d: %w", i, c.Buffer, err)
			}
		case cl.CallEnqueueCopyBuffer, cl.CallEnqueueCopyImgToBuf:
			src, dst := buffers[c.Buffer], buffers[c.Buffer2]
			if src == nil || dst == nil {
				return fmt.Errorf("detsim: call %d: copy with unknown buffer: %w", i, faults.ErrBadRecording)
			}
			if h.beforeCopy != nil {
				if err := h.beforeCopy(c, src, dst); err != nil {
					return err
				}
			}
			if err := hostCopy(src, dst, c.Offset, c.Offset2, c.Size); err != nil {
				return fmt.Errorf("detsim: call %d: buffers %d to %d: %w", i, c.Buffer, c.Buffer2, err)
			}
		case cl.CallEnqueueNDRangeKernel:
			l, ok := kernels[c.KID]
			if !ok {
				return fmt.Errorf("detsim: call %d: enqueue of unknown kernel %d: %w", i, c.KID, faults.ErrBadRecording)
			}
			// Dispatch is synchronous and the interpreters never append to
			// the binding slices, so the kernel object itself is the
			// launch, not a copy of it.
			l.Invocation, l.GWS = invocation, c.GWS
			if err := h.onLaunch(l); err != nil {
				return err
			}
			invocation++
		default:
			// Host-only calls carry no device work.
		}
	}
	return nil
}

// hostWrite copies payload into b at offset off. A hostile or torn
// recording or snippet can carry any offset, so a write that does not
// fit is refused instead of panicking (or silently truncating).
func hostWrite(b *device.Buffer, off int, payload []byte) error {
	if off < 0 || off > b.Size() || len(payload) > b.Size()-off {
		return fmt.Errorf("write [%d, %d+%d) out of bounds (%d-byte buffer): %w",
			off, off, len(payload), b.Size(), faults.ErrBadRecording)
	}
	_, err := b.WriteAt(payload, int64(off))
	return err
}

// hostCopy copies n bytes from src at offset off to dst at offset off2,
// refusing a copy that does not fit either buffer.
func hostCopy(src, dst *device.Buffer, off, off2, n int) error {
	if n < 0 ||
		off < 0 || off > src.Size() || n > src.Size()-off ||
		off2 < 0 || off2 > dst.Size() || n > dst.Size()-off2 {
		return fmt.Errorf("copy src [%d, %d+%d) dst [%d, %d+%d) out of bounds (src %d, dst %d bytes): %w",
			off, off, n, off2, off2, n, src.Size(), dst.Size(), faults.ErrBadRecording)
	}
	return dst.CopyFrom(src, off, off2, n)
}

// progCache memoizes jit.CompileProgram results across Run and Capture
// calls, keyed by program content (kernel names + executable
// fingerprints). Compiled binaries are immutable, so entries are shared
// freely, including by the parallel snippet-replay workers, each of
// which owns a private Simulator but shares this process-wide memo; a
// shared binary decodes once (jit.Binary.Kernel) for all of them.
var progCache = memo.New[map[string]*jit.Binary]("detsim_compile_cache")

// programKey content-addresses a program: each kernel's name and
// executable fingerprint, length-delimited via memo.Key.
func programKey(p *kernel.Program) (string, error) {
	parts := make([][]byte, 0, 2*len(p.Kernels))
	for _, k := range p.Kernels {
		fp, err := k.Fingerprint()
		if err != nil {
			return "", err
		}
		parts = append(parts, []byte(k.Name), []byte(fp))
	}
	return memo.Key(parts...), nil
}

// compileCached returns the program's compiled binaries, compiling at
// most once per distinct program content in the process lifetime.
func compileCached(p *kernel.Program) (map[string]*jit.Binary, error) {
	key, err := programKey(p)
	if err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	bins, _, err := progCache.Do(key, func() (map[string]*jit.Binary, error) { return jit.CompileProgram(p) })
	return bins, err
}

// CompileCacheStats reports the program-compile cache counters:
// lookups served from cache, compilations performed, and distinct
// programs held.
func CompileCacheStats() (hits, misses uint64, entries int) {
	st := progCache.Stats()
	return st.Hits, st.Misses, st.Entries
}

// ResetCompileCache drops every cached program and snippet kernel and
// zeroes the counters (tests and benchmark baselines).
func ResetCompileCache() {
	progCache.Reset()
	snippetBins.Reset()
}
