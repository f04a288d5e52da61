package detsim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/kernel"
	"gtpin/internal/obs"
	"gtpin/internal/par"
	"gtpin/internal/testgen"
)

// recordCfg is record with an explicit generator config and an optional
// deterministic timer hook on the recording device. The snippet
// differential needs both: the fidelity config emits timer-reading
// kernels, and those are only byte-comparable across backends under a
// shared hook.
func recordCfg(t testing.TB, seed int64, steps int, cfg testgen.Config, timer func(uint64) uint32) (*cofluent.Recording, int) {
	t.Helper()
	return recordOut(t, seed, steps, cfg, timer, 1<<12, nil)
}

// recordOut is recordCfg with an output surface (recording buffer ID 1)
// of outSize bytes, into which the host writes outInit, when given,
// before the first launch. The kernels store to the output's first 512
// bytes only (four bytes per global ID, and no launch is wider than
// 128), so the rest of a larger surface holds outInit throughout.
func recordOut(t testing.TB, seed int64, steps int, cfg testgen.Config, timer func(uint64) uint32, outSize int, outInit []byte) (*cofluent.Recording, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := testgen.Program(rng, fmt.Sprintf("snip%d", seed), cfg)
	return recordSchedule(t, p, testgen.Driver(rng, p, steps, cfg), timer, outSize, outInit)
}

// recordSchedule records the host schedule sched over program p, whose
// kernels take one scalar argument (the trip count) and bind an input
// surface (recording buffer ID 0) and the output surface (ID 1), as
// testgen's kernels do.
func recordSchedule(t testing.TB, p *kernel.Program, sched []testgen.DriverStep, timer func(uint64) uint32, outSize int, outInit []byte) (*cofluent.Recording, int) {
	t.Helper()
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	dev.SetTimerHook(timer)
	ctx := cl.NewContext(dev)
	tr := cofluent.Attach(ctx)
	q := ctx.CreateQueue()
	in, _ := ctx.CreateBuffer(1 << 12)
	out, _ := ctx.CreateBuffer(outSize)
	data := make([]byte, 1<<12)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := q.EnqueueWriteBuffer(in, 0, data); err != nil {
		t.Fatal(err)
	}
	if outInit != nil {
		if err := q.EnqueueWriteBuffer(out, 0, outInit); err != nil {
			t.Fatal(err)
		}
	}
	prog := ctx.CreateProgram(p)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]*cl.Kernel{}
	for _, k := range p.Kernels {
		ko, err := prog.CreateKernel(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ko.SetBuffer(1, out); err != nil {
			t.Fatal(err)
		}
		kernels[k.Name] = ko
	}
	for _, s := range sched {
		ko := kernels[s.Kernel]
		if err := ko.SetArg(0, s.Iters); err != nil {
			t.Fatal(err)
		}
		if err := q.EnqueueNDRangeKernel(ko, s.GWS); err != nil {
			t.Fatal(err)
		}
		if s.Sync {
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	rec, err := cofluent.Record("snip", tr, []*kernel.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	return rec, len(tr.Timings())
}

// constTimer is a deterministic, stateless timer hook. Snippet replays
// skip the prefix's timer reads, so only a hook with no cross-call
// state produces identical values on the serial and snippet paths.
func constTimer(uint64) uint32 { return 0x51C0FFEE }

// pageSize is the page granularity of snippet memory images.
const pageSize = 4096

// pagedOut is an output surface for recordOut of four pages and a
// partial fifth (4·4096+8 bytes) that the host fills with non-zero bytes
// in pages 2 and 4 only: the kernels write page 0, pages 1 and 3 stay
// zero, and pages 2 and 4 are non-zero pages no kernel writes.
func pagedOut() (size int, init []byte) {
	size = 4*pageSize + 8
	init = make([]byte, size)
	for i := range init {
		if page := i / pageSize; page == 2 || page == 4 {
			init[i] = byte(i*29 + 7)
		}
	}
	return size, init
}

// snippetRanges picks a representative sampling plan for an n-invocation
// recording: an early range with warmup clamping at program start, a
// middle one with warmup, and one ending at the last invocation.
func snippetRanges(n int) []detsim.Range {
	if n < 6 {
		return []detsim.Range{{From: n / 2, To: n/2 + 1, Warmup: 1}}
	}
	return []detsim.Range{
		{From: 1, To: 2, Warmup: 1},
		{From: n / 2, To: n/2 + 1, Warmup: 2},
		{From: n - 1, To: n},
	}
}

// comparable strips a report down to the fields the serial and snippet
// paths must agree on byte-for-byte. Fast-forward fields are excluded
// by construction: not fast-forwarding the prefix is the snippet path's
// entire purpose.
type comparableReport struct {
	Detailed       int
	Warmed         int
	DetailedInstrs uint64
	DetailedCycles uint64
	DetailedTimeNs float64
	LaneOps        uint64
	WarmupTimeNs   float64
	Cache          string
	MemAccesses    uint64
	Range          detsim.RangeReport
}

func comparable(rep *detsim.Report) comparableReport {
	return comparableReport{
		Detailed:       rep.Detailed,
		Warmed:         rep.Warmed,
		DetailedInstrs: rep.DetailedInstrs,
		DetailedCycles: rep.DetailedCycles,
		DetailedTimeNs: rep.DetailedTimeNs,
		LaneOps:        rep.LaneOps,
		WarmupTimeNs:   rep.WarmupTimeNs,
		Cache:          fmt.Sprintf("%+v", rep.Cache),
		MemAccesses:    rep.MemAccesses,
		Range:          rep.Ranges[0],
	}
}

// TestSnippetReplayMatchesSerial is the tentpole differential: for
// random workloads — including timer-reading, predication-heavy ones —
// capturing interval snippets and replaying them in parallel must
// reproduce the exact per-range reports, cache statistics, and memory
// images of the serial fast-forwarding path. The captured snippets are
// replayed as they are, which verifies their pages with the sums Capture
// computed, and after a round trip through their serialized form, which
// hashes every page: the portability format is under the same
// microscope. A round trip gives back every exported field; only the
// page sums, which the encoding never carries, are gone.
func TestSnippetReplayMatchesSerial(t *testing.T) {
	outSize, outInit := pagedOut()
	cases := []struct {
		name    string
		cfg     testgen.Config
		timer   func(uint64) uint32
		outSize int
		outInit []byte
	}{
		{"default", testgen.DefaultConfig(), nil, 1 << 12, nil},
		{"fidelity", testgen.FidelityConfig(), constTimer, 1 << 12, nil},
		// An output surface of several pages, some never written and
		// some all zeros, ending in a partial page.
		{"pages", testgen.DefaultConfig(), nil, outSize, outInit},
	}
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			tc, trial := tc, trial
			t.Run(fmt.Sprintf("%s/trial%d", tc.name, trial), func(t *testing.T) {
				rec, n := recordOut(t, int64(8600+trial), 8, tc.cfg, tc.timer, tc.outSize, tc.outInit)
				ranges := snippetRanges(n)

				// Serial baseline: one full fast-forwarding Run per range,
				// each on a fresh simulator — exactly what cmd/subsets did
				// before snippets.
				serial := make([]comparableReport, len(ranges))
				var serialOut [][]byte
				for i, r := range ranges {
					sim, err := detsim.New(detsim.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					sim.SetTimerHook(tc.timer)
					rep, err := sim.Run(rec, []detsim.Range{r})
					if err != nil {
						t.Fatal(err)
					}
					serial[i] = comparable(rep)
					if i == len(ranges)-1 && r.To == n {
						serialOut = append(serialOut, surfaceBytes(sim.Buffer(0)))
						serialOut = append(serialOut, surfaceBytes(sim.Buffer(1)))
					}
				}

				// Capture once, round-trip the serialization, replay all
				// snippets in parallel on private simulators.
				capSim, err := detsim.New(detsim.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				capSim.SetTimerHook(tc.timer)
				snips, err := capSim.Capture(rec, ranges)
				if err != nil {
					t.Fatal(err)
				}
				if len(snips) != len(ranges) {
					t.Fatalf("captured %d snippets for %d ranges", len(snips), len(ranges))
				}
				// replays holds the captured snippets, then their decoded
				// copies.
				replays := slices.Clone(snips)
				for i, sn := range snips {
					data, err := sn.Encode()
					if err != nil {
						t.Fatal(err)
					}
					rt, err := detsim.DecodeSnippet(data)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(detsim.WithoutSums(sn), rt) {
						t.Fatalf("snippet %d did not survive the encode/decode round trip", i)
					}
					replays = append(replays, rt)
				}

				type replayOut struct {
					rep  comparableReport
					bufs [][]byte
				}
				outs, err := par.Map(context.Background(), len(replays), 4, func(i int) (replayOut, error) {
					sim, err := detsim.New(detsim.DefaultConfig())
					if err != nil {
						return replayOut{}, err
					}
					sim.SetTimerHook(tc.timer)
					rep, err := sim.RunSnippet(replays[i])
					if err != nil {
						return replayOut{}, err
					}
					o := replayOut{rep: comparable(rep)}
					if i%len(snips) == len(snips)-1 && replays[i].Range.To == n {
						o.bufs = append(o.bufs, surfaceBytes(sim.Buffer(0)))
						o.bufs = append(o.bufs, surfaceBytes(sim.Buffer(1)))
					}
					return o, nil
				})
				if err != nil {
					t.Fatal(err)
				}

				for i, o := range outs {
					kind, r := "captured", i%len(snips)
					if i >= len(snips) {
						kind = "decoded"
					}
					if o.rep != serial[r] {
						t.Errorf("range %d: %s snippet replay diverged from serial:\nserial:  %+v\nsnippet: %+v",
							r, kind, serial[r], o.rep)
					}
					// The last range ends the recording, so its replay's
					// final images must equal the serial path's (which in
					// turn equal the original device's).
					if r != len(snips)-1 || len(serialOut) == 0 {
						continue
					}
					if len(o.bufs) != len(serialOut) {
						t.Fatalf("%s: buffer image sets differ in size", kind)
					}
					for b := range serialOut {
						if !bytes.Equal(o.bufs[b], serialOut[b]) {
							t.Errorf("buffer %d: %s snippet replay memory diverged from serial", b, kind)
						}
					}
				}
			})
		}
	}
}

// checkImage fails unless every page of a buffer's memory image is
// aligned, exactly sized, non-zero and in strictly ascending order.
func checkImage(t *testing.T, b detsim.SnippetBuffer) {
	t.Helper()
	next := 0
	for _, p := range b.Image {
		if p.Offset < next || p.Offset%pageSize != 0 {
			t.Errorf("buffer %d: page at offset %d is misaligned or out of order", b.ID, p.Offset)
		}
		if want := min(pageSize, b.Size-p.Offset); len(p.Bytes) != want {
			t.Errorf("buffer %d: page at offset %d is %d bytes, want %d", b.ID, p.Offset, len(p.Bytes), want)
		}
		if !slices.ContainsFunc(p.Bytes, func(c byte) bool { return c != 0 }) {
			t.Errorf("buffer %d: image carries the all-zero page at offset %d", b.ID, p.Offset)
		}
		next = p.Offset + pageSize
	}
}

// TestSnippetTrimsUntouchedBuffers: a snippet must not carry images (or
// digests) for buffers its window never touches — the size savings that
// make snippets shippable — and an image carries exactly the surface's
// non-zero pages.
func TestSnippetTrimsUntouchedBuffers(t *testing.T) {
	rec, n := recordCfg(t, 8701, 6, testgen.DefaultConfig(), nil)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, []detsim.Range{{From: n - 1, To: n}})
	if err != nil {
		t.Fatal(err)
	}
	sn := snips[0]
	if len(sn.PostDigests) == 0 {
		t.Fatal("no post-digests recorded")
	}
	digested := make(map[int]bool)
	for _, d := range sn.PostDigests {
		if len(d.SHA256) != 64 {
			t.Errorf("buffer %d: malformed digest %q", d.ID, d.SHA256)
		}
		digested[d.ID] = true
	}
	imaged := 0
	for _, b := range sn.Buffers {
		if len(b.Image) > 0 {
			imaged++
			if !digested[b.ID] {
				t.Errorf("buffer %d: carries an image but the window never touches it", b.ID)
			}
			checkImage(t, b)
		}
	}
	if imaged == 0 {
		t.Fatal("no buffer carried an image — the window must touch something")
	}

	// A window opening at the first launch sees the output surface as
	// the host left it: exactly pages 2 and 4 non-zero.
	outSize, outInit := pagedOut()
	rec, _ = recordOut(t, 8701, 6, testgen.DefaultConfig(), nil, outSize, outInit)
	if snips, err = sim.Capture(rec, []detsim.Range{{From: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	var out *detsim.SnippetBuffer
	for i, b := range snips[0].Buffers {
		if b.ID == 1 {
			out = &snips[0].Buffers[i]
		}
	}
	if out == nil || out.Size != outSize {
		t.Fatalf("output surface missing or mis-sized in %+v", snips[0].Buffers)
	}
	checkImage(t, *out)
	var offsets []int
	for _, p := range out.Image {
		offsets = append(offsets, p.Offset)
		if !bytes.Equal(p.Bytes, outInit[p.Offset:p.Offset+len(p.Bytes)]) {
			t.Errorf("page at offset %d does not hold the host's bytes", p.Offset)
		}
	}
	if want := []int{2 * pageSize, 4 * pageSize}; !slices.Equal(offsets, want) {
		t.Errorf("output image pages at %v, want %v", offsets, want)
	}
}

// TestSnippetDivergenceDetected: corrupting a snippet's memory image
// must surface as faults.ErrSnippetDiverged at replay, not as silently
// wrong results — wherever in a surface of several pages the corruption
// sits, including pages the window never writes and pages the image
// leaves out because they were zero, and after the snippet has replayed
// cleanly once: a decoded snippet's pages carry no sums, so no replay
// may keep one for a page that can change.
func TestSnippetDivergenceDetected(t *testing.T) {
	replay := func(t *testing.T, sn *detsim.Snippet) error {
		t.Helper()
		rsim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, err = rsim.RunSnippet(sn)
		return err
	}

	t.Run("byte0", func(t *testing.T) {
		rec, n := recordCfg(t, 8702, 6, testgen.DefaultConfig(), nil)
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		snips, err := sim.Capture(rec, []detsim.Range{{From: n - 1, To: n}})
		if err != nil {
			t.Fatal(err)
		}
		// Captured snippets are shared and read-only: corrupt a copy.
		data, err := snips[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		sn, err := detsim.DecodeSnippet(data)
		if err != nil {
			t.Fatal(err)
		}
		flipped := false
		for i := range sn.Buffers {
			if len(sn.Buffers[i].Image) > 0 {
				sn.Buffers[i].Image[0].Bytes[0] ^= 0xFF
				flipped = true
				break
			}
		}
		if !flipped {
			t.Fatal("no image to corrupt")
		}
		if err := replay(t, sn); !errors.Is(err, faults.ErrSnippetDiverged) {
			t.Fatalf("corrupted snippet: want ErrSnippetDiverged, got %v", err)
		}
	})

	// The output surface's image holds page 0 (written by the prefix's
	// kernels) and pages 2 and 4 (the host's, which no kernel writes).
	outSize, outInit := pagedOut()
	rec, n := recordOut(t, 8702, 6, testgen.DefaultConfig(), nil, outSize, outInit)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, []detsim.Range{{From: n - 1, To: n}})
	if err != nil {
		t.Fatal(err)
	}
	captured, err := snips[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	// fresh decodes an uncorrupted copy and returns it with its output
	// surface and the index of that surface's page at offset 2·4096.
	fresh := func(t *testing.T) (*detsim.Snippet, *detsim.SnippetBuffer, int) {
		t.Helper()
		sn, err := detsim.DecodeSnippet(captured)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sn.Buffers {
			if b := &sn.Buffers[i]; b.ID == 1 {
				for j, p := range b.Image {
					if p.Offset == 2*pageSize {
						return sn, b, j
					}
				}
			}
		}
		t.Fatalf("no output page at offset %d in %+v", 2*pageSize, sn.Buffers)
		return nil, nil, 0
	}
	sn, _, _ := fresh(t)
	if err := replay(t, sn); err != nil {
		t.Fatalf("uncorrupted multi-page snippet: %v", err)
	}
	corruptions := []struct {
		name string
		do   func(b *detsim.SnippetBuffer, j int)
	}{
		{"unwritten-page-flip", func(b *detsim.SnippetBuffer, j int) { b.Image[j].Bytes[100] ^= 0x01 }},
		{"zero-page-added", func(b *detsim.SnippetBuffer, j int) {
			page := make([]byte, pageSize)
			page[pageSize-1] = 1
			b.Image = slices.Insert(b.Image, j, detsim.SnippetPage{Offset: pageSize, Bytes: page})
		}},
		{"page-dropped", func(b *detsim.SnippetBuffer, j int) { b.Image = slices.Delete(b.Image, j, j+1) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			sn, b, j := fresh(t)
			c.do(b, j)
			if err := replay(t, sn); !errors.Is(err, faults.ErrSnippetDiverged) {
				t.Fatalf("want ErrSnippetDiverged, got %v", err)
			}
		})
	}
	t.Run("replayed-then-flipped", func(t *testing.T) {
		sn, b, j := fresh(t)
		if err := replay(t, sn); err != nil {
			t.Fatalf("first replay: %v", err)
		}
		b.Image[j].Bytes[100] ^= 0x01
		if err := replay(t, sn); !errors.Is(err, faults.ErrSnippetDiverged) {
			t.Fatalf("want ErrSnippetDiverged, got %v", err)
		}
	})
}

// TestSnippetRejectsMalformed: structural validation refuses snippets
// whose events reference undefined objects or whose version is foreign.
func TestSnippetRejectsMalformed(t *testing.T) {
	if _, err := detsim.DecodeSnippet([]byte("{")); !errors.Is(err, faults.ErrBadRecording) {
		t.Errorf("truncated JSON: got %v", err)
	}
	if _, err := detsim.DecodeSnippet([]byte(`{"version":99}`)); !errors.Is(err, faults.ErrBadRecording) {
		t.Errorf("foreign version: got %v", err)
	}
	bad := &detsim.Snippet{
		Version: detsim.SnippetVersion,
		Range:   detsim.Range{From: 0, To: 1},
		Kernels: []detsim.SnippetKernel{{Name: "k"}},
		Events:  []detsim.SnippetEvent{{Kind: "launch", Kernel: 0, Surfaces: []int{7}}},
	}
	data, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detsim.DecodeSnippet(data); !errors.Is(err, faults.ErrBadRecording) {
		t.Errorf("undefined surface: got %v", err)
	}

	// A version-1 snippet carried each image as one base64 string.
	v1 := `{"version":1,"range":{"From":0,"To":1},"buffers":[{"id":0,"size":8,"image":"AQIDBAUGBwg="}]}`
	if _, err := detsim.DecodeSnippet([]byte(v1)); !errors.Is(err, faults.ErrBadRecording) || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 snippet: got %v", err)
	}
	// A version-2 snippet has version 3's shape, but its digests hash
	// the pages' bytes rather than their sums.
	v2 := `{"version":2,"range":{"From":0,"To":1},"buffers":[{"id":0,"size":8,"image":[{"offset":0,"bytes":"AQIDBAUGBwg="}]}]}`
	if _, err := detsim.DecodeSnippet([]byte(v2)); !errors.Is(err, faults.ErrBadRecording) || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 snippet: got %v", err)
	}
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSnippet(&detsim.Snippet{Version: 2, Range: detsim.Range{From: 0, To: 1}}); !errors.Is(err, faults.ErrBadRecording) || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 snippet replayed: got %v", err)
	}

	// Page lists of a 3·4096+8-byte surface. The valid one decodes and
	// replays; each malformed one must be refused by both DecodeSnippet
	// and RunSnippet before anything runs.
	const size = 3*pageSize + 8
	page := func(off, n int) detsim.SnippetPage {
		return detsim.SnippetPage{Offset: off, Bytes: bytes.Repeat([]byte{0x5A}, n)}
	}
	pages := []struct {
		name  string
		image []detsim.SnippetPage
	}{
		{"valid", []detsim.SnippetPage{page(0, pageSize), page(2*pageSize, pageSize), page(3*pageSize, 8)}},
		{"misaligned", []detsim.SnippetPage{page(8, pageSize)}},
		{"negative", []detsim.SnippetPage{page(-pageSize, pageSize)}},
		{"past-end", []detsim.SnippetPage{page(0, pageSize), page(4*pageSize, pageSize)}},
		{"short", []detsim.SnippetPage{page(pageSize, pageSize-1)}},
		{"long", []detsim.SnippetPage{page(3*pageSize, 9)}},
		{"repeated", []detsim.SnippetPage{page(pageSize, pageSize), page(pageSize, pageSize)}},
		{"decreasing", []detsim.SnippetPage{page(2*pageSize, pageSize), page(pageSize, pageSize)}},
	}
	for _, pc := range pages {
		sn := &detsim.Snippet{
			Version: detsim.SnippetVersion,
			Range:   detsim.Range{From: 0, To: 1},
			Buffers: []detsim.SnippetBuffer{{ID: 0, Size: size, Image: pc.image}},
		}
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, decErr := detsim.DecodeSnippet(data)
		sim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := sim.RunSnippet(sn)
		if pc.name == "valid" {
			if decErr != nil || runErr != nil {
				t.Errorf("valid page list: decode %v, replay %v", decErr, runErr)
			}
			continue
		}
		if !errors.Is(decErr, faults.ErrBadRecording) {
			t.Errorf("%s page list: DecodeSnippet got %v", pc.name, decErr)
		}
		if !errors.Is(runErr, faults.ErrBadRecording) {
			t.Errorf("%s page list: RunSnippet got %v", pc.name, runErr)
		}
	}
}

// TestCaptureRejectsRangePastEnd: a range beyond the recording's
// invocations is a configuration error, not a silent partial snippet.
func TestCaptureRejectsRangePastEnd(t *testing.T) {
	rec, n := recordCfg(t, 8703, 4, testgen.DefaultConfig(), nil)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Capture(rec, []detsim.Range{{From: n, To: n + 2}}); !errors.Is(err, faults.ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// TestMergeReports: the aggregate of per-interval reports sums counters
// and concatenates ranges in input order.
func TestMergeReports(t *testing.T) {
	rec, n := recordCfg(t, 8704, 8, testgen.DefaultConfig(), nil)
	ranges := snippetRanges(n)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*detsim.Report, len(snips))
	for i, sn := range snips {
		rsim, err := detsim.New(detsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if reps[i], err = rsim.RunSnippet(sn); err != nil {
			t.Fatal(err)
		}
	}
	m := detsim.MergeReports(reps)
	var wantDet, wantWarm int
	var wantInstrs uint64
	for i, r := range reps {
		wantDet += r.Detailed
		wantWarm += r.Warmed
		wantInstrs += r.DetailedInstrs
		if m.Ranges[i].Range != ranges[i] {
			t.Errorf("merged range %d = %+v, want %+v", i, m.Ranges[i].Range, ranges[i])
		}
	}
	if m.Detailed != wantDet || m.Warmed != wantWarm || m.DetailedInstrs != wantInstrs {
		t.Errorf("merged %d/%d/%d, want %d/%d/%d",
			m.Detailed, m.Warmed, m.DetailedInstrs, wantDet, wantWarm, wantInstrs)
	}
	if len(m.Cache) != len(reps[0].Cache) {
		t.Fatalf("merged %d cache levels, want %d", len(m.Cache), len(reps[0].Cache))
	}
	var acc uint64
	for _, r := range reps {
		acc += r.Cache[0].Accesses
	}
	if m.Cache[0].Accesses != acc {
		t.Errorf("merged L3 accesses %d, want %d", m.Cache[0].Accesses, acc)
	}
	if detsim.MergeReports(nil).Detailed != 0 {
		t.Error("empty merge not zero")
	}
}

// TestSnippetEncodedLen: the byte count Capture adds to
// detsim_snippet_bytes_total, computed without encoding the images,
// equals len(Encode()) for captured snippets and for hand-built ones
// with nil, empty and short byte fields.
func TestSnippetEncodedLen(t *testing.T) {
	var snips []*detsim.Snippet
	for _, cfg := range []testgen.Config{testgen.DefaultConfig(), testgen.FidelityConfig()} {
		for seed := int64(8710); seed < 8713; seed++ {
			rec, n := recordCfg(t, seed, 8, cfg, nil)
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Capture(rec, snippetRanges(n))
			if err != nil {
				t.Fatal(err)
			}
			snips = append(snips, got...)
		}
	}
	var kernels []detsim.SnippetKernel
	var buffers []detsim.SnippetBuffer
	var events []detsim.SnippetEvent
	fields := [][]byte{nil, {}, {0}, {1, 2}, {3, 4, 5}, {6, 7, 8, 9}, bytes.Repeat([]byte{0xFF}, 1001)}
	for i, b := range fields {
		kernels = append(kernels, detsim.SnippetKernel{Name: fmt.Sprint("k", i), Code: b})
		buffers = append(buffers, detsim.SnippetBuffer{ID: i, Size: 1 + len(b), Image: []detsim.SnippetPage{{Bytes: b}}})
		events = append(events, detsim.SnippetEvent{Kind: "write", Buffer: i, Size: len(b), Payload: b})
	}
	// Images of several pages, of none, and an empty page list.
	var multi []detsim.SnippetPage
	for i, b := range fields {
		multi = append(multi, detsim.SnippetPage{Offset: i * pageSize, Bytes: b})
	}
	buffers = append(buffers,
		detsim.SnippetBuffer{ID: 100, Size: len(fields) * pageSize, Image: multi},
		detsim.SnippetBuffer{ID: 101, Size: 8},
		detsim.SnippetBuffer{ID: 102, Size: 8, Image: []detsim.SnippetPage{}},
	)
	snips = append(snips,
		&detsim.Snippet{},
		&detsim.Snippet{Kernels: []detsim.SnippetKernel{}, Buffers: []detsim.SnippetBuffer{}, Events: []detsim.SnippetEvent{}, PostDigests: []detsim.BufferDigest{}},
		&detsim.Snippet{Version: detsim.SnippetVersion, App: "hand/built<&>", Kernels: kernels, Buffers: buffers, Events: events},
		&detsim.Snippet{Events: []detsim.SnippetEvent{{Kind: "launch", Args: []uint32{}, Surfaces: []int{}}, {Kind: "launch", Args: []uint32{1}}}},
	)
	for i, sn := range snips {
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		n, err := sn.EncodedLen()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) {
			t.Errorf("snippet %d: EncodedLen %d, len(Encode()) %d", i, n, len(data))
		}
	}
}

// TestSnippetKernelsSharedByCode: RunSnippet takes each snippet kernel's
// binary from a process-wide memo keyed by the kernel's code bytes. A
// round-tripped copy of a snippet finds every kernel there and replays
// exactly as the original did; a kernel whose code is changed in place,
// in the same slice, is decoded from its new bytes (which here no longer
// decode), not served the binary kept for the old ones; and once the
// bytes are restored it replays as before.
func TestSnippetKernelsSharedByCode(t *testing.T) {
	rec, n, _ := record(t, 8802, 12)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, []detsim.Range{{From: n / 2, To: n/2 + 1, Warmup: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSnippet(snips[0])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snips[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := detsim.DecodeSnippet(enc)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return obs.Default().Snapshot().Counters["detsim_snippet_kernel_cache_hits_total"] }
	before := hits()
	got, err := sim.RunSnippet(sn)
	if err != nil {
		t.Fatal(err)
	}
	if d := hits() - before; d < uint64(len(sn.Kernels)) {
		t.Errorf("the round-tripped snippet's %d kernels made %d memo hits", len(sn.Kernels), d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the round-tripped snippet replays differently")
	}

	code := sn.Kernels[0].Code
	code[0] ^= 0xFF // the binary's magic
	if _, err := sim.RunSnippet(sn); err == nil {
		t.Fatal("a kernel whose code no longer decodes replayed: it reached the binary of its old code")
	}
	code[0] ^= 0xFF
	if got, err = sim.RunSnippet(sn); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the restored snippet replays differently (%v)", err)
	}
}
