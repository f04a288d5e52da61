package gtpin_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/gtpin"
	"gtpin/internal/kernel"
	"gtpin/internal/testgen"
)

// The trace-buffer tests hold Detach and the buffer pool behind it to
// their contract: detaching changes nothing GT-Pin reports, a recycled
// buffer comes back all zero, a detached instance's kernels cannot
// reach the buffer it gave back, and the pool hands one buffer to one
// instance at a time, also under concurrent replays.

// allTools enables every optional tool, so a replay writes the counter
// region, the latency slots and the memory-trace ring.
var allTools = gtpin.Options{MemTrace: true, Latency: true}

// detachRecording records a generated program natively, for replays
// under GT-Pin.
func detachRecording(t *testing.T, seed int64) *cofluent.Recording {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := testgen.DefaultConfig()
	p := testgen.Program(rng, fmt.Sprintf("detach%d", seed), cfg)
	tr, _, _ := runGenerated(t, p, testgen.Driver(rng, p, 6, cfg), false, gtpin.Options{})
	rec, err := cofluent.Record(p.Name, tr, []*kernel.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// replayGTPin replays rec on a fresh device under a GT-Pin instance with
// opts, detaching it afterwards when detach is set.
func replayGTPin(rec *cofluent.Recording, opts gtpin.Options, detach bool) (*gtpin.GTPin, error) {
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		return nil, err
	}
	var g *gtpin.GTPin
	if _, err := rec.Replay(dev, func(ctx *cl.Context) error {
		var aerr error
		g, aerr = gtpin.Attach(ctx, opts)
		return aerr
	}); err != nil {
		return nil, err
	}
	if detach {
		g.Detach()
	}
	return g, nil
}

// report is everything a GT-Pin instance reports.
type report struct {
	Records []*gtpin.InvocationRecord
	Kernels map[string]gtpin.KernelInfo
	Trace   []gtpin.MemAccess
	Drops   uint64
}

func reportOf(g *gtpin.GTPin) report {
	return report{g.Records(), g.Kernels(), g.MemTrace(), g.RingDrops()}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestDetachKeepsProfile: records, kernels and the memory trace are the
// same whether or not the instance is detached, and whether its buffer
// was fresh or recycled by an earlier Detach.
func TestDetachKeepsProfile(t *testing.T) {
	rec := detachRecording(t, 4100)
	want, err := replayGTPin(rec, allTools, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Records()) == 0 || len(want.MemTrace()) == 0 {
		t.Fatal("the replay recorded no invocations or no memory trace")
	}
	for i := 0; i < 3; i++ {
		got, err := replayGTPin(rec, allTools, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceBuf() != nil {
			t.Fatal("a detached instance still holds its trace buffer")
		}
		if !reflect.DeepEqual(reportOf(got), reportOf(want)) {
			t.Fatalf("replay %d: the detached instance's profile differs from an attached one's", i)
		}
	}
}

// TestDetachClearsRecycledBuffer: a MemTrace and Latency replay leaves
// its trace buffer dirty, and once it is detached the next Attach that
// recycles that buffer gets it all zero. The pool may drop a buffer (the
// race detector makes it drop one Put in four), so the test retries
// until the buffer comes back.
func TestDetachClearsRecycledBuffer(t *testing.T) {
	rec := detachRecording(t, 4200)
	for try := 0; try < 20; try++ {
		g, err := replayGTPin(rec, allTools, false)
		if err != nil {
			t.Fatal(err)
		}
		buf := g.TraceBuf()
		if allZero(buf.Bytes()) {
			t.Fatal("the replay left its trace buffer all zero, so recycling it proves nothing")
		}
		g.Detach()
		next := attachFresh(t, allTools)
		if !allZero(next.TraceBuf().Bytes()) {
			t.Fatal("Attach got a trace buffer that is not all zero")
		}
		if next.TraceBuf() == buf {
			return
		}
		next.Detach()
	}
	t.Fatal("the pool never returned a detached buffer in 20 tries")
}

// TestDispatchAfterDetachFails: an instrumented kernel enqueued after
// Detach fails with faults.ErrInvalidDispatch, because its trace surface
// is no longer bound, and the buffer the instance gave back stays all
// zero.
func TestDispatchAfterDetachFails(t *testing.T) {
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
	g, err := gtpin.Attach(ctx, allTools)
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.CreateQueue()
	x, err := ctx.CreateBuffer(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctx.CreateBuffer(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	prog := ctx.CreateProgram(buildSaxpyProgram(t))
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{k.SetArg(0, 3), k.SetArg(1, 2), k.SetBuffer(0, x), k.SetBuffer(1, y)} {
		if err != nil {
			t.Fatalf("kernel argument %d: %v", i, err)
		}
	}
	if err := q.EnqueueNDRangeKernel(k, 64); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	buf := g.TraceBuf()
	g.Detach()

	err = q.EnqueueNDRangeKernel(k, 64)
	if err == nil {
		err = q.Finish()
	}
	if !errors.Is(err, faults.ErrInvalidDispatch) {
		t.Fatalf("dispatch after Detach returned %v, want faults.ErrInvalidDispatch", err)
	}
	if !allZero(buf.Bytes()) {
		t.Fatal("a dispatch after Detach wrote the buffer the instance gave back")
	}
	if len(g.Records()) != 1 {
		t.Fatalf("the instance holds %d records, want the 1 from before Detach", len(g.Records()))
	}
}

// TestDetachTwice: a second Detach does nothing — in particular it does
// not give the buffer back twice, which would hand one buffer to two
// instances.
func TestDetachTwice(t *testing.T) {
	g := attachFresh(t, gtpin.Options{})
	g.Detach()
	g.Detach()
	a, b := attachFresh(t, gtpin.Options{}), attachFresh(t, gtpin.Options{})
	if a.TraceBuf() == b.TraceBuf() {
		t.Fatal("two attached instances share one trace buffer")
	}
}

// TestTraceBufPoolConcurrent runs Attach, replay and Detach from several
// goroutines at once, so instances take and return pooled buffers
// concurrently, and requires every replay's profile to equal a serial
// run's. make bench-smoke runs it under -race -count=10.
func TestTraceBufPoolConcurrent(t *testing.T) {
	rec := detachRecording(t, 4300)
	want, err := replayGTPin(rec, allTools, true)
	if err != nil {
		t.Fatal(err)
	}
	const workers, replays = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < replays; i++ {
				got, err := replayGTPin(rec, allTools, true)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(reportOf(got), reportOf(want)) {
					t.Errorf("worker %d replay %d: profile differs from the serial run's", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// attachFresh attaches a GT-Pin instance with opts to a fresh context.
func attachFresh(t *testing.T, opts gtpin.Options) *gtpin.GTPin {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	g, err := gtpin.Attach(cl.NewContext(dev), opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
