package gtpin

// White-box regression tests for the rewriter's edge-case guards: the
// 8-bit surface binding-table ceiling, the power-of-two trace-ring
// invariant, the 32-bit immediate bound on counter-slot addresses, and
// the byte-identity contract of the rewrite cache.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

func newAttached(t testing.TB, opts Options) *GTPin {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	g, err := Attach(cl.NewContext(dev), opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// binWithSurfaces compiles a trivial kernel that declares the given number
// of surfaces without referencing them (Validate only bounds references).
func binWithSurfaces(t testing.TB, surfaces int) *jit.Binary {
	t.Helper()
	a := asm.NewKernel("k", isa.W16)
	a.End()
	k, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	k.NumSurfaces = surfaces
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// testKernelBin compiles a small load/modify/store kernel so the rewrite
// exercises the counter, memory-trace, and latency injection paths.
func testKernelBin(t testing.TB) *jit.Binary {
	t.Helper()
	a := asm.NewKernel("k", isa.W16)
	x := a.Surface(0)
	addr := a.Temp()
	v := a.Temp()
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.Load(v, addr, x, 4)
	a.AddI(v, v, 1)
	a.Store(x, addr, v, 4)
	a.End()
	k, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := jit.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestRewriteSurfaceBoundary(t *testing.T) {
	// 254 declared surfaces is the last instrumentable configuration: the
	// trace surface takes index 254 and the count re-encodes as 255.
	g := newAttached(t, Options{Cache: NewRewriteCache()})
	out, err := g.rewrite(binWithSurfaces(t, maxSurfaces-1))
	if err != nil {
		t.Fatalf("254 surfaces must instrument: %v", err)
	}
	k, err := jit.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumSurfaces != maxSurfaces {
		t.Errorf("instrumented NumSurfaces = %d, want %d", k.NumSurfaces, maxSurfaces)
	}
	if ts := g.kernels["k"].TraceSurface; ts != maxSurfaces-1 {
		t.Errorf("trace surface = %d, want %d", ts, maxSurfaces-1)
	}

	// 255 declared surfaces leaves no binding-table slot: before the guard,
	// uint8(NumSurfaces) stayed in range but NumSurfaces++ truncated in the
	// re-encoded header, aliasing the trace surface onto surface 0.
	g2 := newAttached(t, Options{Cache: NewRewriteCache()})
	if _, err := g2.rewrite(binWithSurfaces(t, maxSurfaces)); !errors.Is(err, faults.ErrSurfaceOverflow) {
		t.Fatalf("255 surfaces: got %v, want ErrSurfaceOverflow", err)
	}
}

func TestAttachRingEntriesValidation(t *testing.T) {
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{RingEntries: 3},                  // not a power of two
		{RingEntries: 48, MemTrace: true}, // not a power of two
		{RingEntries: -8},                 // negative
		{RingEntries: 1 << 30},            // does not fit the buffer
		{RingEntries: 8, MemTrace: true},  // smaller than one trace chunk
	} {
		if _, err := Attach(cl.NewContext(dev), bad); !errors.Is(err, faults.ErrBadConfig) {
			t.Errorf("Attach(%+v): got %v, want ErrBadConfig", bad, err)
		}
	}
	g, err := Attach(cl.NewContext(dev), Options{RingEntries: 1024, MemTrace: true})
	if err != nil {
		t.Fatalf("power-of-two override must attach: %v", err)
	}
	if g.ringEntries != 1024 {
		t.Errorf("ringEntries = %d, want 1024", g.ringEntries)
	}
}

func TestAllocSlotImmediateBoundary(t *testing.T) {
	// Just past the immediate range: slot*8 no longer fits uint32. This is
	// the guard itself, distinct from plain slot exhaustion.
	g := &GTPin{nextSlot: maxImmSlot + 1}
	_, err := g.allocSlot()
	if !errors.Is(err, faults.ErrResourceExhausted) {
		t.Fatalf("got %v, want ErrResourceExhausted", err)
	}
	if !strings.Contains(err.Error(), "immediate") {
		t.Errorf("error %q must name the immediate encoding", err)
	}

	// Exactly at the boundary the byte address still encodes; the failure,
	// if any, is ordinary slot exhaustion, not the immediate guard.
	g.nextSlot = maxImmSlot
	if _, err := g.allocSlot(); err == nil || strings.Contains(err.Error(), "immediate") {
		t.Errorf("at the boundary the immediate guard must not fire: %v", err)
	}

	g.nextSlot = firstFreeSlot
	s, err := g.allocSlot()
	if err != nil || s != firstFreeSlot || g.nextSlot != firstFreeSlot+1 {
		t.Fatalf("allocSlot = (%d, %v), nextSlot = %d", s, err, g.nextSlot)
	}
}

func TestCachedRewriteByteIdentical(t *testing.T) {
	bin := testKernelBin(t)
	rc := NewRewriteCache()
	opts := Options{MemTrace: true, Latency: true, Cache: rc}

	g1 := newAttached(t, opts)
	fresh, err := g1.rewrite(bin)
	if err != nil {
		t.Fatal(err)
	}
	g2 := newAttached(t, opts)
	hit, err := g2.rewrite(bin)
	if err != nil {
		t.Fatal(err)
	}
	gu := newAttached(t, Options{MemTrace: true, Latency: true, Cache: NewRewriteCache()})
	uncached, err := gu.rewrite(bin)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(fresh.Code, hit.Code) {
		t.Error("cache hit must return byte-identical instrumented code")
	}
	if !bytes.Equal(fresh.Code, uncached.Code) {
		t.Error("cached pipeline must match an uncached rewrite byte for byte")
	}
	if st := rc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// A hit must replay the allocator advance and share the metadata.
	if g2.nextSlot != g1.nextSlot {
		t.Errorf("nextSlot after hit = %d, want %d", g2.nextSlot, g1.nextSlot)
	}
	if g2.kernels["k"] != g1.kernels["k"] {
		t.Error("hit must install the shared instrKernel")
	}
	// Per-instance duplicate detection still applies on a hit.
	if _, err := g2.rewrite(bin); !errors.Is(err, faults.ErrAlreadyAttached) {
		t.Errorf("second rewrite of %q in one instance: got %v, want ErrAlreadyAttached", "k", err)
	}
}

func TestCacheKeyDiscriminatesOptions(t *testing.T) {
	bin := testKernelBin(t)
	rc := NewRewriteCache()

	g1 := newAttached(t, Options{Latency: true, Cache: rc})
	withLat, err := g1.rewrite(bin)
	if err != nil {
		t.Fatal(err)
	}
	// Same source binary, different tool options: must miss and produce
	// different instrumentation.
	g2 := newAttached(t, Options{Cache: rc})
	plain, err := g2.rewrite(bin)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(withLat.Code, plain.Code) {
		t.Error("latency instrumentation must change the output")
	}
	if st := rc.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses / 0 hits / 2 entries", st)
	}
}
