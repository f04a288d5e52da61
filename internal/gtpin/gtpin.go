package gtpin

import (
	"fmt"
	"math"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Options selects which optional instrumentation the rewriter injects.
// Dynamic basic-block counting — the basis for instruction counts, opcode
// mixes, SIMD widths, and memory byte counts — is always on.
type Options struct {
	// MemTrace records (send site, lane-0 address) pairs into the trace
	// ring, enabling cache simulation from memory traces.
	MemTrace bool
	// Latency wraps each original send in timestamp reads and accumulates
	// per-site memory latencies.
	Latency bool
	// TraceBufBytes overrides the trace buffer size (0 = default).
	TraceBufBytes int
	// RingEntries overrides the memory-trace ring size in 8-byte slots
	// (0 = derive the largest power of two that fits the trace buffer).
	// The ring reservation arithmetic masks positions with RingEntries-1,
	// so an explicit value must be a power of two; Attach rejects other
	// values with faults.ErrBadConfig.
	RingEntries int
	// Cache overrides the rewrite cache for this instance; nil uses the
	// process-wide DefaultRewriteCache.
	Cache *RewriteCache
}

// GTPin is an attached instance of the instrumentation engine. It is
// created per cl.Context via Attach. Not safe for concurrent use; a
// context's API stream is single-threaded.
type GTPin struct {
	opts        Options
	ctx         *cl.Context
	traceBuf    *device.Buffer // nil once detached
	ringEntries int
	cache       *RewriteCache // nil when caching is disabled

	kernels  map[string]*instrKernel
	nextSlot int

	// invocation bookkeeping
	records    []*InvocationRecord
	epoch      int   // sync calls seen so far
	epochQueue []int // sync epoch per pending enqueue, FIFO
	ringDrops  uint64
	lastRing   uint64
	memTrace   []MemAccess
}

// Attach hooks GT-Pin into a context: it allocates the trace buffer,
// notifies the driver to bind it on every dispatch, registers the binary
// re-writer with the JIT, and begins observing the API stream. It must be
// called before the application builds programs.
func Attach(ctx *cl.Context, opts Options) (*GTPin, error) {
	size := opts.TraceBufBytes
	if size == 0 {
		size = DefaultTraceBufBytes
	}
	if size < counterRegionBytes+8 {
		return nil, fmt.Errorf("gtpin: trace buffer %d bytes is below the %d-byte minimum", size, counterRegionBytes+8)
	}
	ringEntries := opts.RingEntries
	if ringEntries == 0 {
		ringEntries = 1
		for ringEntries*2 <= (size-ringOffset)/8 {
			ringEntries *= 2
		}
	} else {
		// The ring reservation sequence masks positions with ringEntries-1
		// (see memTraceSeq); a non-power-of-two size would alias chunks onto
		// each other and corrupt the trace, so reject it up front.
		if ringEntries < 1 || ringEntries&(ringEntries-1) != 0 {
			return nil, fmt.Errorf("gtpin: ring size %d entries is not a power of two: %w",
				ringEntries, faults.ErrBadConfig)
		}
		if ringOffset+ringEntries*8 > size {
			return nil, fmt.Errorf("gtpin: ring size %d entries does not fit the %d-byte trace buffer: %w",
				ringEntries, size, faults.ErrBadConfig)
		}
	}
	if opts.MemTrace && ringEntries < ringChunkSlots {
		return nil, fmt.Errorf("gtpin: trace ring too small for memory tracing (%d entries): %w",
			ringEntries, faults.ErrBadConfig)
	}
	// A fresh buffer costs its page table; pages come as kernels write
	// them.
	buf, err := device.NewBuffer(size)
	if err != nil {
		return nil, fmt.Errorf("gtpin: %w", err)
	}
	cache := opts.Cache
	if cache == nil {
		cache = DefaultRewriteCache()
	}
	g := &GTPin{
		opts:        opts,
		ctx:         ctx,
		traceBuf:    buf,
		ringEntries: ringEntries,
		cache:       cache,
		kernels:     make(map[string]*instrKernel),
		nextSlot:    firstFreeSlot,
	}
	ctx.SetTraceBuffer(buf)
	ctx.AddBuildHook(g.rewrite)
	ctx.AddInterceptor(g)
	return g, nil
}

// Detach ends the instance's use of its trace buffer once the
// application's kernels have completed. It unbinds the buffer from the
// context, so an instrumented kernel dispatched afterwards fails with
// faults.ErrInvalidDispatch instead of writing it, and drops the
// instance's reference, so the buffer's pages can be collected. The
// records, kernels and memory trace collected so far stay readable.
// A second call does nothing.
func (g *GTPin) Detach() {
	if g.traceBuf == nil {
		return
	}
	g.traceBuf = nil
	g.ctx.SetTraceBuffer(nil)
}

// maxImmSlot is the highest counter slot whose byte address (slot*8) still
// fits the 32-bit immediate field of the injected address moves. Slots
// beyond it would encode a wrapped address and silently corrupt whatever
// lives there, so allocSlot refuses them explicitly.
const maxImmSlot = math.MaxUint32 / 8

func (g *GTPin) allocSlot() (int, error) {
	if g.nextSlot > maxImmSlot {
		return 0, fmt.Errorf("counter slot %d byte address overflows the 32-bit immediate encoding: %w",
			g.nextSlot, faults.ErrResourceExhausted)
	}
	if g.nextSlot >= maxSlots {
		return 0, fmt.Errorf("out of trace-buffer counter slots (%d used): %w", g.nextSlot, faults.ErrResourceExhausted)
	}
	s := g.nextSlot
	g.nextSlot++
	return s, nil
}

// MemAccess is one post-processed memory-trace entry: which send site
// issued the access, which SIMD channel, and the byte address it touched.
// Gather/scatter/atomic sends contribute one entry per channel;
// block-addressed sends contribute their channel-0 base address.
type MemAccess struct {
	Kernel  string
	Site    int
	Lane    int
	Surface uint8
	Kind    isa.MsgKind
	Elem    uint8
	Addr    uint32
}

// InvocationRecord is GT-Pin's per-kernel-invocation profile: dynamic
// basic-block counts read from the trace buffer, and the instruction-level
// statistics derived from them. This is the unit the simulation subset
// selection pipeline (Section V) consumes.
type InvocationRecord struct {
	Seq       int // invocation order across the application
	Kernel    string
	GWS       int
	Args      []uint32
	SyncEpoch int // number of sync calls preceding this enqueue

	// BlockCounts[b] is the number of channel-group executions of basic
	// block b.
	BlockCounts []uint64

	// Derived statistics.
	Instrs       uint64
	ByCategory   [isa.NumCategories]uint64
	ByWidth      [isa.NumWidths]uint64
	BytesRead    uint64
	BytesWritten uint64

	// TimeNs is the invocation's wall-clock time as observed at
	// completion. Note this is the instrumented run's time; the selection
	// pipeline takes its SPI timings from an uninstrumented CoFluent run.
	TimeNs float64

	// Latency profiling results (Options.Latency): average observed
	// memory latency in cycles per send site.
	SiteLatency []float64
}

// OnAPICall implements cl.Interceptor: GT-Pin tracks synchronization
// boundaries so each invocation records its sync epoch.
func (g *GTPin) OnAPICall(call *cl.APICall) {
	switch call.Kind {
	case cl.KindKernel:
		g.epochQueue = append(g.epochQueue, g.epoch)
	case cl.KindSync:
		g.epoch++
	}
}

// OnKernelComplete implements cl.Interceptor: when the device finishes an
// invocation, GT-Pin post-processes the trace buffer — reading and
// resetting this kernel's counters — into an InvocationRecord.
func (g *GTPin) OnKernelComplete(comp *cl.KernelCompletion) {
	ik, ok := g.kernels[comp.Kernel]
	if !ok || g.traceBuf == nil {
		// Kernel was built before Attach, so nothing was instrumented, or
		// the instance is detached and has no counters to read.
		return
	}
	epoch := 0
	if len(g.epochQueue) > 0 {
		epoch = g.epochQueue[0]
		g.epochQueue = g.epochQueue[1:]
	}
	rec := &InvocationRecord{
		Seq:         comp.InvocationSeq,
		Kernel:      comp.Kernel,
		GWS:         comp.GWS,
		Args:        comp.Args,
		SyncEpoch:   epoch,
		BlockCounts: make([]uint64, len(ik.BlockSlots)),
		TimeNs:      comp.Stats.TimeNs,
	}
	// The derivation — block counts x static per-block stats — is the
	// engine's shared identity, the same arithmetic its probes use, so
	// instrumented profiles and engine-probe profiles agree bit-for-bit.
	var d engine.DerivedStats
	for b, slot := range ik.BlockSlots {
		v := g.readSlot(slot)
		g.resetSlot(slot)
		rec.BlockCounts[b] = v
		d.AddBlock(&ik.Blocks[b], v)
	}
	rec.Instrs = d.Instrs
	rec.ByCategory = d.ByCategory
	rec.ByWidth = d.ByWidth
	rec.BytesRead = d.BytesRead
	rec.BytesWritten = d.BytesWritten
	if g.opts.Latency {
		rec.SiteLatency = make([]float64, len(ik.Sites))
		for s, site := range ik.Sites {
			sum := g.readSlot(site.LatSumSlot)
			cnt := g.readSlot(site.LatCntSlot)
			g.resetSlot(site.LatSumSlot)
			g.resetSlot(site.LatCntSlot)
			if cnt > 0 {
				// Timer deltas are 32-bit; treat as unsigned cycles.
				rec.SiteLatency[s] = float64(sum) / float64(cnt)
			}
		}
	}
	if g.opts.MemTrace {
		g.drainRing(ik)
	}
	g.records = append(g.records, rec)
}

func (g *GTPin) readSlot(slot int) uint64 {
	v, err := g.traceBuf.ReadU64(slot * 8)
	if err != nil {
		panic(fmt.Sprintf("gtpin: trace buffer slot %d: %v", slot, err))
	}
	return v
}

func (g *GTPin) resetSlot(slot int) {
	if err := g.traceBuf.WriteU64(slot*8, 0); err != nil {
		panic(fmt.Sprintf("gtpin: trace buffer slot %d: %v", slot, err))
	}
}

// drainRing post-processes new memory-trace chunks since the last drain.
// Chunks overwritten before draining are counted as drops.
func (g *GTPin) drainRing(ik *instrKernel) {
	pos := g.readSlot(ringPosSlot) // in slots; one chunk = ringChunkSlots
	n := pos - g.lastRing
	start := g.lastRing
	if n > uint64(g.ringEntries) {
		dropped := (n - uint64(g.ringEntries)) / ringChunkSlots
		g.ringDrops += dropped
		mRingDrops.Add(dropped)
		start = pos - uint64(g.ringEntries)
	}
	for i := start; i < pos; i += ringChunkSlots {
		base := ringOffset + int(i%uint64(g.ringEntries))*8
		words, err := g.traceBuf.ReadU32(base, 2+isa.MaxWidth)
		if err != nil {
			panic(fmt.Sprintf("gtpin: trace ring: %v", err))
		}
		sid := int(words[0])
		if sid >= len(ik.Sites) {
			continue // corrupted or stale header; skip the chunk
		}
		s := ik.Sites[sid]
		lanes := int(s.Width)
		if s.Kind == isa.MsgLoadBlock || s.Kind == isa.MsgStoreBlock {
			lanes = 1
		}
		for l := 0; l < lanes; l++ {
			g.memTrace = append(g.memTrace, MemAccess{
				Kernel:  ik.Name,
				Site:    sid,
				Lane:    l,
				Surface: s.Surface,
				Kind:    s.Kind,
				Elem:    s.Elem,
				Addr:    words[2+l],
			})
		}
	}
	g.lastRing = pos
}

// Records returns the per-invocation profiles collected so far, in
// invocation order.
func (g *GTPin) Records() []*InvocationRecord { return g.records }

// MemTrace returns the post-processed memory accesses (Options.MemTrace).
func (g *GTPin) MemTrace() []MemAccess { return g.memTrace }

// RingDrops returns how many memory-trace entries were overwritten before
// the CPU drained them.
func (g *GTPin) RingDrops() uint64 { return g.ringDrops }

// KernelInfo describes one instrumented kernel's static structure.
type KernelInfo struct {
	Name         string
	SIMD         isa.Width
	NumBlocks    int
	StaticInstrs int
	Blocks       []kernel.BlockStats
}

// Kernels returns static information for every instrumented kernel.
func (g *GTPin) Kernels() map[string]KernelInfo {
	out := make(map[string]KernelInfo, len(g.kernels))
	for name, ik := range g.kernels {
		out[name] = KernelInfo{
			Name:         name,
			SIMD:         ik.SIMD,
			NumBlocks:    len(ik.Blocks),
			StaticInstrs: ik.StaticInstrs,
			Blocks:       ik.Blocks,
		}
	}
	return out
}
