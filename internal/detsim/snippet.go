// Snippet checkpoints: portable, self-verifying interval captures.
//
// The paper's subset step still replays every program from the start to
// reach each selected interval, so subset speedup is capped by serial
// fast-forwarding of the unselected prefix. Following Nugget's portable
// interval checkpoints, Capture runs one functional pass over a
// recording and extracts each selected interval — plus its warmup
// prefix — as a standalone Snippet: the launch state of every enqueue
// in the window (kernel binary, scalar args, surface bindings, global
// work size), a memory image of the surfaces the window actually
// touches (trimmed via the engine's Touch observer, and carried as the
// surfaces' non-zero 4 KiB pages), the host events
// that interleave with the window's launches, and the device-clock seed
// at the window's start. RunSnippet then replays one snippet in
// isolation — cache warmup first, then the detailed range — producing
// bit-identical detailed results to a full fast-forwarding Run of the
// same range, without executing any of the prefix. That makes subset
// simulation embarrassingly parallel over intervals (cmd/subsets). Only
// the clock seed depends on the design, so one capture of a recording
// serves every design (capture.go).
//
// Snippets are digest-verified twice over: the runstate store seals the
// serialized bytes, and the snippet itself records a SHA-256 digest of
// every touched surface at window close, which RunSnippet checks after
// replay (faults.ErrSnippetDiverged on mismatch). Images and digests
// both skip all-zero pages, so a snippet costs what its surfaces hold,
// not what they span.
package detsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"gtpin/internal/cachesim"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/jit"
	"gtpin/internal/memo"
)

// SnippetVersion is the serialization version Encode writes and Decode
// requires. Version 2 carries memory images as page lists and digests
// surfaces page by page (surfaceDigest).
const SnippetVersion = 2

// pageSize is the granularity of memory images and post-digests, a
// surface's own page: a page of zeros is neither carried nor hashed.
const pageSize = engine.PageSize

var zeroPage [pageSize]byte

// Snippet is one captured interval: everything needed to replay the
// invocation window [max(0, From-Warmup), To) on a fresh simulator,
// independent of the recording it came from.
//
// A snippet Capture returns may share its kernels, memory images,
// events and digests with the capture memo and with every other caller
// that captures the same recording, so it is read-only: code that edits
// a snippet edits a copy it decoded (DecodeSnippet) or built itself.
type Snippet struct {
	Version int    `json:"version"`
	App     string `json:"app"`
	Range   Range  `json:"range"`

	// StartCycles and StartDispatches seed the replay device's clock
	// with the values the fast-forwarded prefix would have produced, so
	// MsgTimer reads and the thermal-drift phase of warmup invocations
	// match a full replay exactly.
	StartCycles     uint64 `json:"start_cycles"`
	StartDispatches uint64 `json:"start_dispatches"`

	// HasTimer marks windows whose kernels contain MsgTimer sends. Live
	// timer values differ between the capture pass (functional device
	// clock) and detailed replay (pipeline cycles), so post-replay digest
	// verification is skipped for timer-reading windows unless a
	// deterministic timer hook is installed on both sides.
	HasTimer bool `json:"has_timer,omitempty"`

	Kernels []SnippetKernel `json:"kernels"`
	Buffers []SnippetBuffer `json:"buffers"`
	Events  []SnippetEvent  `json:"events"`

	// PostDigests records surfaceDigest of every touched buffer at
	// window close, sorted by buffer ID — the capture-time ground truth
	// RunSnippet verifies its replay against.
	PostDigests []BufferDigest `json:"post_digests"`
}

// SnippetKernel is one kernel the window launches, carried as its
// compiled device binary (jit.Decode round-trips exactly, so the IR,
// and with it the engine's predecoded stream, is reconstructed
// bit-identically anywhere).
type SnippetKernel struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Code        []byte `json:"code"`
}

// SnippetBuffer is one surface that exists when the window opens. Image
// is its contents at window open: its non-zero pages in ascending
// offset order, every other byte zero. Surfaces that are bound but never
// touched by the window carry only their size (replay recreates them
// zeroed — the window never observes their bytes).
type SnippetBuffer struct {
	ID    int           `json:"id"`
	Size  int           `json:"size"`
	Image []SnippetPage `json:"image,omitempty"`
}

// SnippetPage is one page of a memory image: the surface's bytes at
// [Offset, Offset+len(Bytes)). Offset is a multiple of the page size,
// and Bytes is a whole page unless it ends the surface.
type SnippetPage struct {
	Offset int    `json:"offset"`
	Bytes  []byte `json:"bytes"`
}

// SnippetEvent is one window event in recording order: a kernel launch
// (warmup or detailed) or a host-side buffer operation interleaved with
// the launches.
type SnippetEvent struct {
	Kind string `json:"kind"` // "launch", "create", "write", "copy"

	// launch
	Kernel   int      `json:"kernel,omitempty"` // index into Kernels
	Args     []uint32 `json:"args,omitempty"`
	Surfaces []int    `json:"surfaces,omitempty"` // buffer IDs per slot
	GWS      int      `json:"gws,omitempty"`
	Detailed bool     `json:"detailed,omitempty"`

	// create / write / copy
	Buffer  int    `json:"buffer,omitempty"`
	Buffer2 int    `json:"buffer2,omitempty"`
	Offset  int    `json:"offset,omitempty"`
	Offset2 int    `json:"offset2,omitempty"`
	Size    int    `json:"size,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// BufferDigest binds a buffer ID to the hex surfaceDigest of its bytes.
type BufferDigest struct {
	ID     int    `json:"id"`
	SHA256 string `json:"sha256"`
}

// Event kinds.
const (
	evLaunch = "launch"
	evCreate = "create"
	evWrite  = "write"
	evCopy   = "copy"
)

// Encode serializes the snippet. The encoding is deterministic: equal
// snippets produce equal bytes, so sealed artifacts are content-stable
// across capture runs.
func (sn *Snippet) Encode() ([]byte, error) {
	data, err := json.Marshal(sn)
	if err != nil {
		return nil, fmt.Errorf("detsim: encode snippet: %w", err)
	}
	return data, nil
}

// encodedLen returns len(sn.Encode()) without building the base64 text
// of the snippet's code and memory images: it encodes a copy whose
// non-empty byte fields hold one byte each, then adds back each field's
// full length. encoding/json writes a []byte as padded standard base64,
// so a field of n bytes takes base64.StdEncoding.EncodedLen(n)
// characters between its quotes.
func (sn *Snippet) encodedLen() (int, error) {
	extra := 0
	stub := func(b []byte) []byte {
		if len(b) == 0 {
			return b
		}
		extra += base64.StdEncoding.EncodedLen(len(b)) - base64.StdEncoding.EncodedLen(1)
		return b[:1]
	}
	cp := *sn
	cp.Kernels = slices.Clone(sn.Kernels)
	for i := range cp.Kernels {
		cp.Kernels[i].Code = stub(cp.Kernels[i].Code)
	}
	cp.Buffers = slices.Clone(sn.Buffers)
	for i := range cp.Buffers {
		img := slices.Clone(cp.Buffers[i].Image)
		for j := range img {
			img[j].Bytes = stub(img[j].Bytes)
		}
		cp.Buffers[i].Image = img
	}
	cp.Events = slices.Clone(sn.Events)
	for i := range cp.Events {
		cp.Events[i].Payload = stub(cp.Events[i].Payload)
	}
	data, err := cp.Encode()
	if err != nil {
		return 0, err
	}
	return len(data) + extra, nil
}

// DecodeSnippet parses and structurally validates a serialized snippet.
func DecodeSnippet(data []byte) (*Snippet, error) {
	sn := &Snippet{}
	if err := json.Unmarshal(data, sn); err != nil {
		// A type error leaves the other fields decoded, so a snippet of
		// another version, whose images have another shape, reports its
		// version below.
		var te *json.UnmarshalTypeError
		if !errors.As(err, &te) || sn.Version == SnippetVersion {
			return nil, fmt.Errorf("detsim: decode snippet: %w: %w", faults.ErrBadRecording, err)
		}
	}
	if sn.Version != SnippetVersion {
		return nil, fmt.Errorf("detsim: snippet version %d (want %d): %w", sn.Version, SnippetVersion, faults.ErrBadRecording)
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	return sn, nil
}

// validate checks referential integrity — every event points at a
// kernel and buffers the snippet defines before use — and that every
// memory image is a list of in-bounds pages in strictly ascending order.
func (sn *Snippet) validate() error {
	have := make(map[int]bool, len(sn.Buffers))
	for _, b := range sn.Buffers {
		if b.Size <= 0 {
			return fmt.Errorf("detsim: snippet buffer %d has size %d: %w", b.ID, b.Size, faults.ErrBadRecording)
		}
		next := 0 // the lowest offset the next page may have
		for _, p := range b.Image {
			if p.Offset < next || p.Offset >= b.Size || p.Offset%pageSize != 0 {
				return fmt.Errorf("detsim: snippet buffer %d: image page at offset %d is misaligned, out of bounds or out of order (%d-byte surface): %w",
					b.ID, p.Offset, b.Size, faults.ErrBadRecording)
			}
			if want := min(pageSize, b.Size-p.Offset); len(p.Bytes) != want {
				return fmt.Errorf("detsim: snippet buffer %d: image page at offset %d is %d bytes, want %d: %w",
					b.ID, p.Offset, len(p.Bytes), want, faults.ErrBadRecording)
			}
			next = p.Offset + pageSize
		}
		have[b.ID] = true
	}
	for i, ev := range sn.Events {
		switch ev.Kind {
		case evCreate:
			if ev.Size <= 0 {
				return fmt.Errorf("detsim: snippet event %d: create with size %d: %w", i, ev.Size, faults.ErrBadRecording)
			}
			have[ev.Buffer] = true
		case evWrite:
			if !have[ev.Buffer] {
				return fmt.Errorf("detsim: snippet event %d: write to undefined buffer %d: %w", i, ev.Buffer, faults.ErrBadRecording)
			}
		case evCopy:
			if !have[ev.Buffer] || !have[ev.Buffer2] {
				return fmt.Errorf("detsim: snippet event %d: copy with undefined buffer: %w", i, faults.ErrBadRecording)
			}
		case evLaunch:
			if ev.Kernel < 0 || ev.Kernel >= len(sn.Kernels) {
				return fmt.Errorf("detsim: snippet event %d: kernel %d out of range (%d kernels): %w",
					i, ev.Kernel, len(sn.Kernels), faults.ErrBadRecording)
			}
			for _, id := range ev.Surfaces {
				if !have[id] {
					return fmt.Errorf("detsim: snippet event %d: launch binds undefined buffer %d: %w", i, id, faults.ErrBadRecording)
				}
			}
		default:
			return fmt.Errorf("detsim: snippet event %d: unknown kind %q: %w", i, ev.Kind, faults.ErrBadRecording)
		}
	}
	for _, d := range sn.PostDigests {
		if !have[d.ID] {
			return fmt.Errorf("detsim: snippet digest for undefined buffer %d: %w", d.ID, faults.ErrBadRecording)
		}
	}
	return nil
}

// nonZeroPages calls f with each page of b that holds a non-zero byte,
// in offset order. The last page is short when the size is not a
// multiple of the page size. Only allocated pages can hold one, but an
// allocated page may have been zeroed since, so each is still checked.
func nonZeroPages(b *device.Buffer, f func(off int, page []byte)) {
	b.Pages(func(off int, page []byte) {
		if !bytes.Equal(page, zeroPage[:len(page)]) {
			f(off, page)
		}
	})
}

// surfaceDigest is the hex SHA-256 post-digest of a surface: its size
// (uint64 LE), then the offset (uint64 LE) and bytes of each non-zero
// page in offset order. Size and offset fix every page's length, so the
// encoding is injective on the surface's bytes: two surfaces share a
// digest exactly when a whole-surface SHA-256 would say they are equal
// (up to a collision), while the zero pages cost a compare, not a hash.
func surfaceDigest(b *device.Buffer) string {
	h := sha256.New()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(b.Size()))
	h.Write(word[:])
	nonZeroPages(b, func(off int, page []byte) {
		binary.LittleEndian.PutUint64(word[:], uint64(off))
		h.Write(word[:])
		h.Write(page)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// snippetBins memoizes snippet kernels by their code bytes. Each entry
// is a binary that owns a copy of the code and has decoded it, so a
// kernel that many snippets carry (every design point replays the same
// snippets) decodes and fingerprints once per process. The key is the
// code itself, so a snippet whose code differs in any byte never reaches
// another code's binary.
var snippetBins = memo.New[*jit.Binary]("detsim_snippet_kernel_cache")

// snippetBinary returns the shared, decoded binary of a snippet
// kernel's code. Code that does not decode is an error and is not
// stored.
func snippetBinary(code []byte) (*jit.Binary, error) {
	bin, _, err := snippetBins.Do(string(code), func() (*jit.Binary, error) {
		bin := &jit.Binary{Code: bytes.Clone(code)}
		if _, err := bin.Kernel(); err != nil {
			return nil, err
		}
		return bin, nil
	})
	return bin, err
}

// RunSnippet replays one snippet in isolation: rebuild the window's
// memory from the images, run warmup launches on a clock-seeded
// fast-forward device with the cache-touch hook installed, run detailed
// launches under the cycle-level model, then verify the final memory
// images against the capture-time digests. The detailed results —
// range report, cache statistics, warmup time — are bit-identical to
// Run(rec, []Range{sn.Range}) on the originating recording.
//
// Digest verification is skipped for timer-reading windows when no
// deterministic timer hook is installed (the capture pass and the
// detailed model legitimately disagree on live timer values); install
// the same hook on capture and replay to keep verification armed.
func (s *Simulator) RunSnippet(sn *Snippet) (*Report, error) {
	if sn == nil {
		return nil, fmt.Errorf("detsim: nil snippet: %w", faults.ErrBadConfig)
	}
	if sn.Version != SnippetVersion {
		return nil, fmt.Errorf("detsim: snippet version %d (want %d): %w", sn.Version, SnippetVersion, faults.ErrBadRecording)
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	// One binary per distinct kernel code in the process, shared by
	// every launch of every snippet that carries that code.
	kernels := make([]launch, len(sn.Kernels))
	for i, sk := range sn.Kernels {
		bin, err := snippetBinary(sk.Code)
		if err != nil {
			return nil, fmt.Errorf("detsim: snippet kernel %s: %w", sk.Name, err)
		}
		k, _ := bin.Kernel() // decoded without error when it was stored
		kernels[i] = launch{Kernel: k, Bin: bin}
	}

	buffers := make(map[int]*device.Buffer, len(sn.Buffers))
	s.buffers = buffers
	for _, sb := range sn.Buffers {
		b, err := device.NewBuffer(sb.Size)
		if err != nil {
			return nil, fmt.Errorf("detsim: snippet buffer %d: %w", sb.ID, err)
		}
		// validate bounded every page by sb.Size, and b is no smaller.
		for _, p := range sb.Image {
			if _, err := b.WriteAt(p.Bytes, int64(p.Offset)); err != nil {
				return nil, fmt.Errorf("detsim: snippet buffer %d: %w", sb.ID, err)
			}
		}
		buffers[sb.ID] = b
	}

	rp, err := s.newReplay([]Range{sn.Range}, sn.StartCycles, sn.StartDispatches)
	if err != nil {
		return nil, err
	}
	invocation := max(0, sn.Range.From-sn.Range.Warmup) // numbered as in the recording
	for ei, ev := range sn.Events {
		switch ev.Kind {
		case evCreate:
			b, err := device.NewBuffer(ev.Size)
			if err != nil {
				return nil, fmt.Errorf("detsim: snippet event %d: %w", ei, err)
			}
			buffers[ev.Buffer] = b
		case evWrite:
			if err := hostWrite(buffers[ev.Buffer], ev.Offset, ev.Payload); err != nil {
				return nil, fmt.Errorf("detsim: snippet event %d: buffer %d: %w", ei, ev.Buffer, err)
			}
		case evCopy:
			if err := hostCopy(buffers[ev.Buffer], buffers[ev.Buffer2], ev.Offset, ev.Offset2, ev.Size); err != nil {
				return nil, fmt.Errorf("detsim: snippet event %d: buffers %d to %d: %w", ei, ev.Buffer, ev.Buffer2, err)
			}
		case evLaunch:
			l := &kernels[ev.Kernel]
			l.Invocation, l.Args, l.GWS = invocation, ev.Args, ev.GWS
			l.Surfaces = l.Surfaces[:0]
			for _, id := range ev.Surfaces {
				l.Surfaces = append(l.Surfaces, buffers[id])
			}
			ri := -1
			if ev.Detailed {
				ri = 0
			}
			if err := rp.launch(l, ri, !ev.Detailed); err != nil {
				return nil, err
			}
			invocation++
		}
	}

	if !sn.HasTimer || s.timerHook != nil {
		for _, d := range sn.PostDigests {
			if got := surfaceDigest(buffers[d.ID]); got != d.SHA256 {
				return nil, fmt.Errorf("detsim: snippet %s range [%d, %d): buffer %d: sha256 %s != captured %s: %w",
					sn.App, sn.Range.From, sn.Range.To, d.ID, got, d.SHA256, faults.ErrSnippetDiverged)
			}
		}
	}
	mSnippetReplays.Inc()
	return rp.finish(), nil
}

// MergeReports folds per-interval reports — one per selected interval,
// in interval order, as produced by serial per-range Runs or parallel
// RunSnippet replays — into one aggregate. Range reports concatenate in
// order; counters and times sum; per-level cache statistics sum
// elementwise. Deterministic: the merge is a pure fold, so equal inputs
// in equal order produce an identical aggregate at any worker count.
func MergeReports(reps []*Report) *Report {
	out := &Report{}
	for _, r := range reps {
		if r == nil {
			continue
		}
		out.Detailed += r.Detailed
		out.FastForwarded += r.FastForwarded
		out.Warmed += r.Warmed
		out.DetailedInstrs += r.DetailedInstrs
		out.DetailedCycles += r.DetailedCycles
		out.DetailedTimeNs += r.DetailedTimeNs
		out.LaneOps += r.LaneOps
		out.FastForwardTimeNs += r.FastForwardTimeNs
		out.WarmupTimeNs += r.WarmupTimeNs
		out.MemAccesses += r.MemAccesses
		out.Ranges = append(out.Ranges, r.Ranges...)
		for i, c := range r.Cache {
			if i >= len(out.Cache) {
				out.Cache = append(out.Cache, cachesim.Stats{})
			}
			out.Cache[i].Accesses += c.Accesses
			out.Cache[i].Hits += c.Hits
			out.Cache[i].Misses += c.Misses
			out.Cache[i].Evictions += c.Evictions
			out.Cache[i].Writes += c.Writes
		}
	}
	return out
}
