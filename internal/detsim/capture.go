package detsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strconv"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
	"gtpin/internal/memo"
	"gtpin/internal/obs"
)

// capture is what one functional capture pass yields for every design:
// the snippets with StartCycles left zero, and the work of each dispatch
// before the last window opens, from which a design's clock seeds
// follow (device.Config.Clock).
type capture struct {
	snips []*Snippet
	// work holds each dispatch's statistics with the memory stall taken
	// out of ComputeCycles, in dispatch order; a snippet's
	// StartDispatches indexes its window's first dispatch.
	work []device.ExecStats
	// lens is each snippet's encodedLen with StartCycles zero.
	lens []int
	// bytes counts the memory-image pages, kernel code and write
	// payloads the snippets hold, each interned copy once.
	bytes int64
}

// captures is the capture memo: one capture per recording content,
// ranges and watchdog budget, shared by every design. Snippets in it are
// shared by every caller of Capture and must never be mutated.
var captures = memo.New[*capture]("detsim_capture_cache")

var mCaptureBytes = obs.DefaultGauge("detsim_capture_cache_bytes",
	"memory-image pages, kernel code and write payloads the capture memo holds")

// CaptureCacheStats reports the capture memo: captures served from it,
// captures computed, captures held, and the bytes of memory-image pages,
// kernel code and write payloads they hold.
func CaptureCacheStats() (hits, misses uint64, entries int, bytes int64) {
	st := captures.Stats()
	return st.Hits, st.Misses, st.Entries, mCaptureBytes.Load()
}

// Capture replays the recording once functionally and extracts one
// snippet per requested range. Ranges are validated individually (each
// snippet replays alone, so cross-range overlap is allowed — warmup
// windows of different snippets may cover the same invocations). The
// returned snippets align with the input ranges.
//
// The capture pass executes invocations on a fresh fast-forward device
// configured like Run's (same watchdog budget, same timer hook), so the
// clock seeds of each window's start equal the values a real
// fast-forwarding replay reaches. It stops after the last window's last
// invocation: every image and digest is sealed by then, and host events
// after a window's last launch are ignored, so nothing later can change
// a snippet. The recording past that point is neither executed nor
// validated; Run, which walks all of it, still fails on a fault there.
//
// One capture serves every design. Of a snippet, only StartCycles
// depends on the simulator's configuration: kernels, memory images,
// events, digests and StartDispatches come from functional execution,
// which no design parameter changes unless a kernel reads the timer. So
// Capture keeps each capture in a process-wide memo
// (detsim_capture_cache), keyed by the recording's content, the ranges
// and the watchdog budget, with the work of every dispatch before the
// last window, and gives each window the clock seed that work reaches
// under this simulator's timing model (device.Config.Clock, the step its
// device takes). A recording with a kernel that reads the timer is
// captured on every call and never stored.
//
// The returned snippets may share their contents with the memo and
// every other caller, so they are read-only: to edit one, decode a copy
// of its encoding (DecodeSnippet).
func (s *Simulator) Capture(rec *cofluent.Recording, ranges []Range) ([]*Snippet, error) {
	for _, r := range ranges {
		if err := validateRanges([]Range{r}); err != nil {
			return nil, err
		}
	}
	if len(ranges) == 0 {
		return []*Snippet{}, nil
	}
	var c *capture
	var err error
	if recordingReadsTimer(rec) {
		c, err = s.capturePass(rec, ranges)
	} else {
		var key string
		if key, err = captureKey(rec, ranges, s.cfg.WatchdogInstrs); err != nil {
			return nil, err
		}
		var mine *capture
		var hit bool
		c, hit, err = captures.Do(key, func() (*capture, error) {
			c, err := s.capturePass(rec, ranges)
			mine = c
			return c, err
		})
		if err == nil && !hit && c == mine {
			mCaptureBytes.Add(c.bytes)
		}
	}
	if err != nil {
		return nil, err
	}

	clock := s.cfg.Device.Clock(c.work)
	out := make([]*Snippet, len(c.snips))
	copies := make([]Snippet, len(c.snips))
	var total uint64
	var digits [20]byte
	for i, sn := range c.snips {
		copies[i] = *sn
		copies[i].StartCycles = clock[sn.StartDispatches]
		out[i] = &copies[i]
		// The encoding writes StartCycles as a decimal number, and
		// lens[i] counts the one digit of a zero.
		total += uint64(c.lens[i] - 1 + len(strconv.AppendUint(digits[:0], copies[i].StartCycles, 10)))
	}
	mSnippetsCaptured.Add(uint64(len(out)))
	mSnippetBytes.Add(total)
	return out, nil
}

// recordingReadsTimer reports whether a kernel of any of the recording's
// programs reads the timer, so that its captures depend on the design.
func recordingReadsTimer(rec *cofluent.Recording) bool {
	for _, p := range rec.Programs {
		for _, k := range p.Kernels {
			if engine.KernelReadsTimer(k) {
				return true
			}
		}
	}
	return false
}

// keyWriter writes length-delimited fields into a hash.
type keyWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *keyWriter) num(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *keyWriter) str(s string) {
	w.num(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// flush hashes the buffered fields, then b, length-prefixed.
func (w *keyWriter) flush(b []byte) {
	w.num(uint64(len(b)))
	w.h.Write(w.buf)
	w.h.Write(b)
	w.buf = w.buf[:0]
}

// captureKey content-addresses a capture: everything the capture walk
// reads — the app name, the translate target, each program's content,
// and each call's fields and payload bytes — and the ranges and watchdog
// budget, which decide what it captures and where it fails.
func captureKey(rec *cofluent.Recording, ranges []Range, watchdog uint64) (string, error) {
	w := keyWriter{h: sha256.New(), buf: make([]byte, 0, 256)}
	w.str(rec.App)
	if rec.Translate == nil {
		w.num(0)
	} else {
		w.num(1 + uint64(*rec.Translate))
	}
	w.num(uint64(len(rec.Programs)))
	for _, p := range rec.Programs {
		// What programKey addresses: each kernel's name and executable
		// fingerprint.
		w.num(uint64(len(p.Kernels)))
		for _, k := range p.Kernels {
			fp, err := k.Fingerprint()
			if err != nil {
				return "", fmt.Errorf("detsim: jit: %w", err)
			}
			w.str(k.Name)
			w.str(fp)
		}
	}
	w.num(uint64(len(rec.Calls)))
	for i := range rec.Calls {
		c := &rec.Calls[i]
		w.str(c.Name)
		w.str(c.Kernel)
		for _, v := range [...]int{c.Seq, int(c.Kind), c.Program, c.KID, c.ArgIdx, c.Buffer, c.Buffer2, c.Offset, c.Offset2, c.Size, c.GWS} {
			w.num(uint64(v))
		}
		w.num(uint64(c.ArgVal))
		w.flush(c.Payload)
	}
	w.num(uint64(len(ranges)))
	for _, r := range ranges {
		w.num(uint64(r.From))
		w.num(uint64(r.To))
		w.num(uint64(r.SampleGroups))
		w.num(uint64(r.Warmup))
	}
	w.num(watchdog)
	w.flush(nil)
	return hex.EncodeToString(w.h.Sum(nil)), nil
}

// interner keeps one copy of each byte string a capture pass puts in its
// snippets: each distinct memory-image page content, each binary's code
// and each write's payload, however many windows hold it.
type interner struct {
	pages    map[string][]byte
	code     map[*jit.Binary][]byte
	payloads map[*cl.APICall][]byte
}

func (in *interner) page(p []byte) []byte {
	if c, ok := in.pages[string(p)]; ok {
		return c
	}
	c := bytes.Clone(p)
	in.pages[string(c)] = c
	return c
}

func (in *interner) binCode(b *jit.Binary) []byte {
	c, ok := in.code[b]
	if !ok {
		c = append([]byte(nil), b.Code...)
		in.code[b] = c
	}
	return c
}

func (in *interner) payload(call *cl.APICall) []byte {
	c, ok := in.payloads[call]
	if !ok {
		c = append([]byte(nil), call.Payload...)
		in.payloads[call] = c
	}
	return c
}

// image copies the non-zero pages of a surface into a memory image.
func (in *interner) image(b *device.Buffer) []SnippetPage {
	var img []SnippetPage
	nonZeroPages(b, func(off int, page []byte) {
		img = append(img, SnippetPage{Offset: off, Bytes: in.page(page)})
	})
	return img
}

// capWindow is one in-progress capture.
type capWindow struct {
	r      Range
	wstart int // max(0, From-Warmup): first invocation in the window
	open   bool
	done   bool
	sn     *Snippet

	images  map[int][]SnippetPage // buffer ID -> contents at window open
	sizes   map[int]int           // buffer ID -> size (every referenced buffer)
	touched map[int]bool          // buffer ID -> read/written/host-referenced
	kidx    map[string]int        // kernel fingerprint -> index into sn.Kernels
}

// reference snapshots a buffer the window is about to observe or
// mutate. The first reference wins: every later mutation flows through
// a recorded event, so contents at first reference are contents at
// window open.
func (w *capWindow) reference(id int, b *device.Buffer, touch bool, in *interner) {
	if _, ok := w.sizes[id]; !ok {
		w.sizes[id] = b.Size()
		w.images[id] = in.image(b)
	}
	if touch {
		w.touched[id] = true
	}
}

// errCaptured ends a capture walk once every window is sealed.
var errCaptured = errors.New("detsim: every window captured")

// capturePass runs the functional capture pass over validated,
// non-empty ranges: snippets without their clock seeds, and the work
// that yields them.
func (s *Simulator) capturePass(rec *cofluent.Recording, ranges []Range) (*capture, error) {
	windows := make([]*capWindow, len(ranges))
	for i, r := range ranges {
		windows[i] = &capWindow{
			r: r, wstart: max(0, r.From-r.Warmup),
			sn:      &Snippet{Version: SnippetVersion, App: rec.App, Range: r},
			images:  make(map[int][]SnippetPage),
			sizes:   make(map[int]int),
			touched: make(map[int]bool),
			kidx:    make(map[string]int),
		}
	}
	pending := len(windows) // windows not yet finalized
	in := &interner{
		pages:    make(map[string][]byte),
		code:     make(map[*jit.Binary][]byte),
		payloads: make(map[*cl.APICall][]byte),
	}

	dev, err := device.New(s.cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("detsim: %w", err)
	}
	dev.SetWatchdog(s.cfg.WatchdogInstrs)
	dev.SetTimerHook(s.timerHook)
	var cur *engine.TouchSet
	dev.SetTouchHook(func(keys []uint64, write bool) {
		if cur != nil {
			cur.Observe(keys, write)
		}
	})
	var work []device.ExecStats

	// Per-walk memo of timer scans.
	timers := make(map[*kernel.Kernel]bool)

	openAt := func(inv int) []*capWindow {
		var out []*capWindow
		for _, w := range windows {
			if !w.done && inv >= w.wstart && inv < w.r.To {
				if !w.open {
					w.open = true
					w.sn.StartDispatches = dev.Dispatches()
				}
				out = append(out, w)
			}
		}
		return out
	}
	// hostOpen: windows receiving host events — those already opened by
	// their first launch and not yet closed. Host calls before a window's
	// first launch are prefix state (baked into the images); host calls
	// after its last launch cannot affect the window.
	hostOpen := func() []*capWindow {
		var out []*capWindow
		for _, w := range windows {
			if w.open && !w.done {
				out = append(out, w)
			}
		}
		return out
	}

	buffers := make(map[int]*device.Buffer)
	err = walkRecording(rec, buffers, walkHooks{
		onCreate: func(id int, b *device.Buffer, c *cl.APICall) error {
			for _, w := range hostOpen() {
				// Created inside the window: defined by the event, touched
				// by definition (its zeroed birth state is observable).
				w.sizes[id] = b.Size()
				w.touched[id] = true
				w.sn.Events = append(w.sn.Events, SnippetEvent{Kind: evCreate, Buffer: id, Size: b.Size()})
			}
			return nil
		},
		beforeWrite: func(c *cl.APICall, dst *device.Buffer) error {
			for _, w := range hostOpen() {
				w.reference(c.Buffer, dst, true, in)
				w.sn.Events = append(w.sn.Events, SnippetEvent{
					Kind: evWrite, Buffer: c.Buffer, Offset: c.Offset,
					Payload: in.payload(c),
				})
			}
			return nil
		},
		beforeCopy: func(c *cl.APICall, src, dst *device.Buffer) error {
			for _, w := range hostOpen() {
				w.reference(c.Buffer, src, true, in)
				w.reference(c.Buffer2, dst, true, in)
				w.sn.Events = append(w.sn.Events, SnippetEvent{
					Kind: evCopy, Buffer: c.Buffer, Buffer2: c.Buffer2,
					Offset: c.Offset, Offset2: c.Offset2, Size: c.Size,
				})
			}
			return nil
		},
		onLaunch: func(l *launch) error {
			open := openAt(l.Invocation)
			for _, w := range open {
				for si, b := range l.Surfaces {
					w.reference(l.SurfIDs[si], b, false, in)
				}
				fp, ferr := l.Kernel.Fingerprint()
				if ferr != nil {
					return fmt.Errorf("detsim: capture invocation %d: %w", l.Invocation, ferr)
				}
				if _, ok := timers[l.Kernel]; !ok {
					timers[l.Kernel] = engine.KernelReadsTimer(l.Kernel)
				}
				ki, ok := w.kidx[fp]
				if !ok {
					ki = len(w.sn.Kernels)
					w.kidx[fp] = ki
					w.sn.Kernels = append(w.sn.Kernels, SnippetKernel{
						Name: l.Kernel.Name, Fingerprint: fp, Code: in.binCode(l.Bin),
					})
				}
				if timers[l.Kernel] {
					w.sn.HasTimer = true
				}
				w.sn.Events = append(w.sn.Events, SnippetEvent{
					Kind:     evLaunch,
					Kernel:   ki,
					Args:     append([]uint32(nil), l.Args...),
					Surfaces: append([]int(nil), l.SurfIDs...),
					GWS:      l.GWS,
					Detailed: l.Invocation >= w.r.From,
				})
			}
			cur = engine.NewTouchSet(len(l.Surfaces))
			st, derr := dev.Run(device.Dispatch{
				Binary: l.Bin, Args: l.Args, Surfaces: l.Surfaces, GlobalWorkSize: l.GWS,
			})
			ts := cur
			cur = nil
			if derr != nil {
				return fmt.Errorf("detsim: capture invocation %d (%s): %w", l.Invocation, l.Kernel.Name, derr)
			}
			work = append(work, s.cfg.Device.Work(st))
			for _, w := range open {
				for si, id := range l.SurfIDs {
					if ts.Touched(si) {
						w.touched[id] = true
					}
				}
				if l.Invocation == w.r.To-1 {
					w.finalize(buffers)
					pending--
				}
			}
			if pending == 0 {
				return errCaptured
			}
			return nil
		},
	})
	if err != nil && !errors.Is(err, errCaptured) {
		return nil, err
	}

	c := &capture{snips: make([]*Snippet, len(windows)), lens: make([]int, len(windows))}
	var last uint64 // the latest window start: the work the clock seeds need
	for i, w := range windows {
		if !w.done {
			return nil, fmt.Errorf("detsim: range [%d, %d) extends past the recording's invocations: %w",
				w.r.From, w.r.To, faults.ErrBadConfig)
		}
		c.snips[i] = w.sn
		if c.lens[i], err = w.sn.encodedLen(); err != nil {
			return nil, err
		}
		last = max(last, w.sn.StartDispatches)
	}
	c.work = slices.Clone(work[:last])
	c.bytes = heldBytes(c.snips)
	return c, nil
}

// heldBytes counts the bytes of the code, image pages and payloads the
// snippets hold, each interned copy once.
func heldBytes(snips []*Snippet) int64 {
	seen := make(map[*byte]bool)
	var n int64
	add := func(b []byte) {
		if len(b) > 0 && !seen[&b[0]] {
			seen[&b[0]] = true
			n += int64(len(b))
		}
	}
	for _, sn := range snips {
		for _, k := range sn.Kernels {
			add(k.Code)
		}
		for _, b := range sn.Buffers {
			for _, p := range b.Image {
				add(p.Bytes)
			}
		}
		for _, ev := range sn.Events {
			add(ev.Payload)
		}
	}
	return n
}

// finalize seals a window: assemble the buffer table (images kept only
// for touched surfaces) and digest the touched surfaces' bytes at
// window close.
func (w *capWindow) finalize(buffers map[int]*device.Buffer) {
	ids := make([]int, 0, len(w.sizes))
	for id := range w.sizes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sb := SnippetBuffer{ID: id, Size: w.sizes[id]}
		if img, ok := w.images[id]; ok {
			if w.touched[id] {
				sb.Image = img
			}
			w.sn.Buffers = append(w.sn.Buffers, sb)
		}
		// Buffers created inside the window are defined by their create
		// events, not the buffer table.
		if w.touched[id] {
			w.sn.PostDigests = append(w.sn.PostDigests, BufferDigest{ID: id, SHA256: surfaceDigest(buffers[id])})
		}
	}
	w.done = true
	w.open = false
}
