package detsim_test

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/cachesim"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
	"gtpin/internal/obs"
	"gtpin/internal/testgen"
)

type design struct {
	name string
	cfg  detsim.Config
}

// sweepDesigns are the candidate machines of the benchmark's design
// sweep: the HD 4000 baseline, EU count, clock, the next generation and
// L3 capacity. Each changes the timing model, so each gives a window
// another clock seed.
func sweepDesigns() []design {
	with := func(name string, f func(*detsim.Config)) design {
		c := detsim.DefaultConfig()
		f(&c)
		return design{name, c}
	}
	l3 := func(kib int) func(*detsim.Config) {
		return func(c *detsim.Config) {
			l := cachesim.HD4000L3()
			l.SizeBytes = kib << 10
			c.Caches = []cachesim.Config{l, cachesim.HD4000LLC()}
		}
	}
	return []design{
		with("hd4000", func(*detsim.Config) {}),
		with("8eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(8) }),
		with("32eu", func(c *detsim.Config) { c.Device = c.Device.WithEUs(32) }),
		with("350mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(350) }),
		with("850mhz", func(c *detsim.Config) { c.Device = c.Device.WithFrequency(850) }),
		with("hd4600", func(c *detsim.Config) { c.Device = device.HaswellHD4600() }),
		with("l3-128k", l3(128)),
		with("l3-512k", l3(512)),
	}
}

// captureEncoded captures the ranges under a design, with the timer hook
// when one is given, and encodes each snippet.
func captureEncoded(t *testing.T, cfg detsim.Config, timer func(uint64) uint32, rec *cofluent.Recording, ranges []detsim.Range) [][]byte {
	t.Helper()
	sim, err := detsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetTimerHook(timer)
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	return encodeAll(t, snips)
}

func encodeAll(t *testing.T, snips []*detsim.Snippet) [][]byte {
	t.Helper()
	out := make([][]byte, len(snips))
	for i, sn := range snips {
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// freshCaptures captures under each design with the memo emptied first,
// so every capture walks the recording under its own design.
func freshCaptures(t *testing.T, designs []design, timer func(uint64) uint32, rec *cofluent.Recording, ranges []detsim.Range) [][][]byte {
	t.Helper()
	fresh := make([][][]byte, len(designs))
	for i, d := range designs {
		detsim.ResetCompileCache()
		fresh[i] = captureEncoded(t, d.cfg, timer, rec, ranges)
	}
	return fresh
}

// TestCaptureMemoSharedMatchesFresh: with the memo filled by the first
// design to capture, every design's captures encode exactly as a fresh
// capture under that design does, clock seeds included, whichever design
// filled it; the memo then holds one capture, computed once.
func TestCaptureMemoSharedMatchesFresh(t *testing.T) {
	rec, n, _ := record(t, 8811, 16)
	ranges := append(snippetRanges(n), detsim.Range{From: n / 2, To: n/2 + 2, Warmup: 3})
	designs := sweepDesigns()
	fresh := freshCaptures(t, designs, nil, rec, ranges)
	seeds := map[string]bool{}
	for i := range designs {
		seeds[string(fresh[i][1])] = true
	}
	if len(seeds) < 2 {
		t.Fatal("every design captured the same middle window: the designs do not move the clock seed")
	}

	orders := map[string][]int{"forward": {0, 1, 2, 3, 4, 5, 6, 7}, "reverse": {7, 6, 5, 4, 3, 2, 1, 0}}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			detsim.ResetCompileCache()
			bytesTotal := obs.DefaultCounter("detsim_snippet_bytes_total", "")
			captured := obs.DefaultCounter("detsim_snippets_captured_total", "")
			for _, di := range order {
				b0, c0 := bytesTotal.Load(), captured.Load()
				got := captureEncoded(t, designs[di].cfg, nil, rec, ranges)
				var sum uint64
				for i := range got {
					if !bytes.Equal(got[i], fresh[di][i]) {
						t.Errorf("%s window %d: the shared capture differs from a fresh one", designs[di].name, i)
					}
					sum += uint64(len(got[i]))
				}
				// Hits count what they return, as misses do.
				if d := bytesTotal.Load() - b0; d != sum {
					t.Errorf("%s: snippet bytes counter rose %d, want %d", designs[di].name, d, sum)
				}
				if d := captured.Load() - c0; d != uint64(len(ranges)) {
					t.Errorf("%s: snippets counter rose %d, want %d", designs[di].name, d, len(ranges))
				}
			}
			hits, misses, entries, _ := detsim.CaptureCacheStats()
			if hits != uint64(len(designs)-1) || misses != 1 || entries != 1 {
				t.Errorf("memo: %d hits, %d misses, %d entries; want %d, 1, 1", hits, misses, entries, len(designs)-1)
			}
		})
	}

	// Every window's image of the input surface, which no kernel writes,
	// holds the same pages: the memo keeps each distinct copy once, and
	// its gauge counts exactly the distinct bytes the snippets hold.
	sim, err := detsim.New(designs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*byte]bool{}
	var distinct, pages, distinctPages int64
	add := func(b []byte, page bool) {
		if page {
			pages += int64(len(b))
		}
		if len(b) > 0 && !seen[&b[0]] {
			seen[&b[0]] = true
			distinct += int64(len(b))
			if page {
				distinctPages += int64(len(b))
			}
		}
	}
	for _, sn := range snips {
		for _, k := range sn.Kernels {
			add(k.Code, false)
		}
		for _, b := range sn.Buffers {
			for _, p := range b.Image {
				add(p.Bytes, true)
			}
		}
		for _, ev := range sn.Events {
			add(ev.Payload, false)
		}
	}
	if _, _, _, held := detsim.CaptureCacheStats(); held != distinct || distinctPages >= pages {
		t.Errorf("memo holds %d bytes; the snippets hold %d distinct bytes, and %d distinct of %d image bytes", held, distinct, distinctPages, pages)
	}
}

// TestCaptureMemoConcurrentFirstCaptures: the eight designs capture one
// recording at once, before the memo holds it. Whichever capture the
// memo keeps, each design's snippets equal its fresh capture.
func TestCaptureMemoConcurrentFirstCaptures(t *testing.T) {
	rec, n, _ := record(t, 8812, 12)
	ranges := snippetRanges(n)
	designs := sweepDesigns()
	fresh := freshCaptures(t, designs, nil, rec, ranges)

	detsim.ResetCompileCache()
	got := make([][]*detsim.Snippet, len(designs))
	errs := make([]error, len(designs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, d := range designs {
		sim, err := detsim.New(d.cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = sim.Capture(rec, ranges)
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range designs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", d.name, errs[i])
		}
		for w, data := range encodeAll(t, got[i]) {
			if !bytes.Equal(data, fresh[i][w]) {
				t.Errorf("%s window %d: a concurrent first capture differs from a fresh one", d.name, w)
			}
		}
	}
	if _, _, entries, _ := detsim.CaptureCacheStats(); entries != 1 {
		t.Errorf("memo holds %d captures of one recording, want 1", entries)
	}
}

// stampKernel stores the timer it reads at the output surface's offset
// 1024 + 4·gid, above what testgen's kernels write: channel 0 stores the
// device clock, the other channels zero.
func stampKernel() *kernel.Kernel {
	a := asm.NewKernel("stamp", isa.W8)
	a.Arg(0)
	a.Surface(0)
	out := a.Surface(1)
	v, addr := a.Temp(), a.Temp()
	a.MovI(v, 0)
	a.Timer(v)
	a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
	a.AddI(addr, addr, 1024)
	a.Store(out, addr, v, 4)
	a.End()
	return a.MustBuild()
}

// TestCaptureMemoSkipsTimerRecordings: a recording whose kernels read the
// timer captures under each design as a fresh capture does, and the memo
// neither stores nor looks it up. Without a shared timer hook the
// windows' memory depends on the design's clock, so sharing one capture
// would be wrong, as the differing designs show. The recording is a
// timer-reading testgen program with a kernel that stores the timer
// launched at every third step.
func TestCaptureMemoSkipsTimerRecordings(t *testing.T) {
	rng := rand.New(rand.NewSource(8813))
	cfg := testgen.FidelityConfig()
	gen := testgen.Program(rng, "timers", cfg)
	var sched []testgen.DriverStep
	for i, st := range testgen.Driver(rng, gen, 8, cfg) {
		if i%3 == 1 {
			sched = append(sched, testgen.DriverStep{Kernel: "stamp", GWS: 16, Iters: 1})
		}
		sched = append(sched, st)
	}
	p := asm.MustProgram("timers", append(slices.Clone(gen.Kernels), stampKernel())...)
	rec, n := recordSchedule(t, p, sched, nil, 1<<12, nil)
	ranges := snippetRanges(n)
	designs := sweepDesigns()
	fresh := freshCaptures(t, designs, nil, rec, ranges)

	detsim.ResetCompileCache()
	for round := 0; round < 2; round++ {
		for i, d := range designs {
			got := captureEncoded(t, d.cfg, nil, rec, ranges)
			for w := range got {
				if !bytes.Equal(got[w], fresh[i][w]) {
					t.Errorf("%s window %d: capture differs from a fresh one", d.name, w)
				}
			}
		}
	}
	if hits, misses, entries, held := detsim.CaptureCacheStats(); hits+misses != 0 || entries != 0 || held != 0 {
		t.Errorf("memo: %d hits, %d misses, %d entries, %d bytes; want none", hits, misses, entries, held)
	}

	// Once the clock seeds are set aside, some window still differs
	// between two designs: its memory holds timer values.
	differ := false
	for i := 1; i < len(designs) && !differ; i++ {
		for w := range ranges {
			a, b := decodeZeroSeed(t, fresh[0][w]), decodeZeroSeed(t, fresh[i][w])
			if !bytes.Equal(a, b) {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("every design captured the same timer-reading windows: the recording does not show why it is not shared")
	}
}

// decodeZeroSeed re-encodes a snippet with its clock seed zeroed.
func decodeZeroSeed(t *testing.T, data []byte) []byte {
	t.Helper()
	sn, err := detsim.DecodeSnippet(data)
	if err != nil {
		t.Fatal(err)
	}
	sn.StartCycles = 0
	out, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCaptureMemoSnippetsStayUnchanged: replaying a captured snippet and
// capturing the same recording again, under its design and others, leave
// the snippet's encoding as it was.
func TestCaptureMemoSnippetsStayUnchanged(t *testing.T) {
	rec, n, _ := record(t, 8814, 12)
	ranges := snippetRanges(n)
	designs := sweepDesigns()
	detsim.ResetCompileCache()
	sim, err := detsim.New(designs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	snips, err := sim.Capture(rec, ranges)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, snips)
	check := func(after string) {
		t.Helper()
		for i, data := range encodeAll(t, snips) {
			if !bytes.Equal(data, want[i]) {
				t.Errorf("window %d: the snippet's encoding changed after %s", i, after)
			}
		}
	}
	for _, sn := range snips {
		rsim, err := detsim.New(designs[0].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rsim.RunSnippet(sn); err != nil {
			t.Fatal(err)
		}
	}
	check("RunSnippet")
	for _, d := range designs {
		dsim, err := detsim.New(d.cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := dsim.Capture(rec, ranges)
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range again {
			if _, err := dsim.RunSnippet(sn); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("later captures")
}

// TestCaptureMemoKeyedByContent: a recording that differs in one payload
// byte, or a simulator with another watchdog budget, is not served the
// memo's capture of the original.
func TestCaptureMemoKeyedByContent(t *testing.T) {
	rec, n, _ := record(t, 8815, 8)
	ranges := []detsim.Range{{From: n - 1, To: n}}
	detsim.ResetCompileCache()
	want := captureEncoded(t, detsim.DefaultConfig(), nil, rec, ranges)

	calls := slices.Clone(rec.Calls)
	edited := false
	for i := range calls {
		if len(calls[i].Payload) > 0 {
			calls[i].Payload = slices.Clone(calls[i].Payload)
			calls[i].Payload[0] ^= 0xFF
			edited = true
			break
		}
	}
	if !edited {
		t.Fatal("recording has no write payload to edit")
	}
	other := &cofluent.Recording{App: rec.App, Calls: calls, Programs: rec.Programs}
	got := captureEncoded(t, detsim.DefaultConfig(), nil, other, ranges)
	if bytes.Equal(got[0], want[0]) {
		t.Error("a recording with another payload byte was captured as the original")
	}

	cfg := detsim.DefaultConfig()
	cfg.WatchdogInstrs = 1 << 40
	captureEncoded(t, cfg, nil, rec, ranges)
	if hits, misses, _, _ := detsim.CaptureCacheStats(); hits != 0 || misses != 3 {
		t.Errorf("memo: %d hits, %d misses; want 0, 3", hits, misses)
	}
}
