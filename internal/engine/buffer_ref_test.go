package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// This file keeps the engine's flat surface, the Buffer every surface
// was before surfaces became tables of pages, as the reference the
// paged Buffer is held to: the same element accessors, lane loops and
// typed host reads and writes, over one zeroed byte slice. The host
// reads and writes that the paged Buffer's ReadAt, WriteAt, CopyFrom
// and Clear replace are copy and clear on that slice.

// flatBuffer is a byte-addressable memory surface bound to kernels through the
// binding table. Buffers are shared between host and device: the host
// writes inputs and reads results, the engine's send instructions gather,
// scatter, and atomically update elements.
//
// Addresses in send messages are byte offsets. Offsets are wrapped modulo
// the buffer size rather than faulting; real hardware would raise a page
// fault, but wrapping keeps synthetic workloads total while remaining
// deterministic.
type flatBuffer struct {
	data []byte
	// mask is len(data)-1 when the size is a power of two (the common
	// case), letting wrap use a bitwise AND instead of an integer
	// division on the per-lane access path; 0 selects the modulo path.
	mask int
}

// newFlatBuffer allocates a zeroed surface of the given size in bytes.
// The size is rounded up to a multiple of 8 so 64-bit accesses at any
// wrapped offset stay in bounds.
func newFlatBuffer(size int) (*flatBuffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("buffer size must be positive, got %d", size)
	}
	size = (size + 7) &^ 7
	b := &flatBuffer{data: make([]byte, size)}
	if size&(size-1) == 0 {
		b.mask = size - 1
	}
	return b, nil
}

// Size returns the buffer's capacity in bytes.
func (b *flatBuffer) Size() int { return len(b.data) }

// Bytes returns the backing store. Host-side code may read and write it
// directly; device-side access goes through the typed accessors below.
func (b *flatBuffer) Bytes() []byte { return b.data }

// wrap clamps a device byte offset into the buffer, aligned to elem bytes.
// An offset already below the size needs no reduction, which spares
// every in-range access to a non-power-of-two surface its division.
func (b *flatBuffer) wrap(off uint32, elem int) int {
	n := len(b.data)
	var o int
	if b.mask != 0 {
		o = int(off) & b.mask
	} else if uint(off) < uint(n) {
		o = int(off)
	} else {
		o = int(off) % n
	}
	// Align down so a full element fits (elem is a power of two for every
	// valid message; the modulo path keeps exotic sizes total).
	if elem&(elem-1) == 0 {
		o &^= elem - 1
	} else {
		o -= o % elem
	}
	if o+elem > n {
		o = n - elem
	}
	return o
}

// LoadElem reads one element of elem bytes (1, 2, 4, or 8) at the wrapped
// offset, zero-extended to 64 bits.
func (b *flatBuffer) LoadElem(off uint32, elem int) uint64 {
	o := b.wrap(off, elem)
	switch elem {
	case 1:
		return uint64(b.data[o])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b.data[o:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b.data[o:]))
	case 8:
		return binary.LittleEndian.Uint64(b.data[o:])
	}
	panic(fmt.Sprintf("LoadElem: bad element size %d", elem))
}

// StoreElem writes one element of elem bytes at the wrapped offset,
// truncating v.
func (b *flatBuffer) StoreElem(off uint32, elem int, v uint64) {
	o := b.wrap(off, elem)
	switch elem {
	case 1:
		b.data[o] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b.data[o:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b.data[o:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b.data[o:], v)
	default:
		panic(fmt.Sprintf("StoreElem: bad element size %d", elem))
	}
}

// AtomicAdd adds v to the element at the wrapped offset and returns the
// previous value. Engine execution is single-goroutine, so no host-level
// synchronization is needed; "atomic" refers to the device semantics
// (read-modify-write as one message).
func (b *flatBuffer) AtomicAdd(off uint32, elem int, v uint64) uint64 {
	old := b.LoadElem(off, elem)
	b.StoreElem(off, elem, old+v)
	return old
}

// loadLanes, storeLanes and addLanes are the lane loops of an
// unpredicated, unobserved gather, scatter and atomic add: lane i
// accesses the wrapped offset addrs[i] exactly as LoadElem, StoreElem
// and AtomicAdd do, lanes run in order (so duplicate addresses resolve
// as they do lane by lane), and the element size is fixed outside each
// loop. Each reports false, touching nothing, for an element size the
// typed accessors reject, leaving the caller to take the per-lane path.

// loadLanes sets dst[i] to the low 32 bits of the element at addrs[i].
func (b *flatBuffer) loadLanes(dst, addrs []uint32, elem int) bool {
	data, dst := b.data, dst[:len(addrs)]
	switch elem {
	case 1:
		for i, a := range addrs {
			dst[i] = uint32(data[b.wrap(a, 1)])
		}
	case 2:
		for i, a := range addrs {
			dst[i] = uint32(binary.LittleEndian.Uint16(data[b.wrap(a, 2):]))
		}
	case 4:
		for i, a := range addrs {
			dst[i] = binary.LittleEndian.Uint32(data[b.wrap(a, 4):])
		}
	case 8:
		for i, a := range addrs {
			dst[i] = uint32(binary.LittleEndian.Uint64(data[b.wrap(a, 8):]))
		}
	default:
		return false
	}
	return true
}

// storeLanes writes vals[i], truncated or zero-extended to the element
// size, at addrs[i].
func (b *flatBuffer) storeLanes(addrs, vals []uint32, elem int) bool {
	data, vals := b.data, vals[:len(addrs)]
	switch elem {
	case 1:
		for i, a := range addrs {
			data[b.wrap(a, 1)] = byte(vals[i])
		}
	case 2:
		for i, a := range addrs {
			binary.LittleEndian.PutUint16(data[b.wrap(a, 2):], uint16(vals[i]))
		}
	case 4:
		for i, a := range addrs {
			binary.LittleEndian.PutUint32(data[b.wrap(a, 4):], vals[i])
		}
	case 8:
		for i, a := range addrs {
			binary.LittleEndian.PutUint64(data[b.wrap(a, 8):], uint64(vals[i]))
		}
	default:
		return false
	}
	return true
}

// addLanes adds vals[i] to the element at addrs[i] and sets old[i] to
// the low 32 bits of its previous value. Each lane reads its address and
// addend before writing old[i], so old may alias either.
func (b *flatBuffer) addLanes(old, addrs, vals []uint32, elem int) bool {
	data, old, vals := b.data, old[:len(addrs)], vals[:len(addrs)]
	switch elem {
	case 1:
		for i, a := range addrs {
			o := b.wrap(a, 1)
			v := data[o]
			data[o] = v + byte(vals[i])
			old[i] = uint32(v)
		}
	case 2:
		for i, a := range addrs {
			p := data[b.wrap(a, 2):]
			v := binary.LittleEndian.Uint16(p)
			binary.LittleEndian.PutUint16(p, v+uint16(vals[i]))
			old[i] = uint32(v)
		}
	case 4:
		for i, a := range addrs {
			p := data[b.wrap(a, 4):]
			v := binary.LittleEndian.Uint32(p)
			binary.LittleEndian.PutUint32(p, v+vals[i])
			old[i] = v
		}
	case 8:
		for i, a := range addrs {
			p := data[b.wrap(a, 8):]
			v := binary.LittleEndian.Uint64(p)
			binary.LittleEndian.PutUint64(p, v+uint64(vals[i]))
			old[i] = uint32(v)
		}
	default:
		return false
	}
	return true
}

// WriteU32 writes host data as little-endian 32-bit words starting at a
// byte offset, for test and workload setup.
func (b *flatBuffer) WriteU32(off int, vals ...uint32) error {
	if off < 0 || off+4*len(vals) > len(b.data) {
		return fmt.Errorf("WriteU32: range [%d, %d) out of bounds (size %d)", off, off+4*len(vals), len(b.data))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b.data[off+4*i:], v)
	}
	return nil
}

// ReadU32 reads n little-endian 32-bit words starting at a byte offset.
func (b *flatBuffer) ReadU32(off, n int) ([]uint32, error) {
	if off < 0 || off+4*n > len(b.data) {
		return nil, fmt.Errorf("ReadU32: range [%d, %d) out of bounds (size %d)", off, off+4*n, len(b.data))
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b.data[off+4*i:])
	}
	return out, nil
}

// ReadU64 reads one little-endian 64-bit word at a byte offset.
func (b *flatBuffer) ReadU64(off int) (uint64, error) {
	if off < 0 || off+8 > len(b.data) {
		return 0, fmt.Errorf("ReadU64: offset %d out of bounds (size %d)", off, len(b.data))
	}
	return binary.LittleEndian.Uint64(b.data[off:]), nil
}

// WriteU64 writes one little-endian 64-bit word at a byte offset.
func (b *flatBuffer) WriteU64(off int, v uint64) error {
	if off < 0 || off+8 > len(b.data) {
		return fmt.Errorf("WriteU64: offset %d out of bounds (size %d)", off, len(b.data))
	}
	binary.LittleEndian.PutUint64(b.data[off:], v)
	return nil
}

// contents reads a surface's whole contents.
func contents(b *Buffer) []byte {
	out := make([]byte, b.Size())
	if _, err := b.ReadAt(out, 0); err != nil {
		panic(err)
	}
	return out
}

// bufferPair is one surface twice, the paged Buffer under test and the
// flat reference, with the pages that received a non-zero write since
// the last Clear: the only pages the paged Buffer may have allocated.
type bufferPair struct {
	paged   *Buffer
	flat    *flatBuffer
	written map[int]bool
}

// wrote records a write of v's low elem bytes at byte o.
func (p *bufferPair) wrote(o, elem int, v uint64) {
	if v<<(64-8*elem) != 0 {
		p.written[o/PageSize] = true
	}
}

// wroteBytes records a write of data at byte o.
func (p *bufferPair) wroteBytes(o int, data []byte) {
	for i, c := range data {
		if c != 0 {
			p.written[(o+i)/PageSize] = true
		}
	}
}

// pagedFuzz drives random operations through two surface pairs of
// possibly different sizes.
type pagedFuzz struct {
	t     *testing.T
	rng   *rand.Rand
	pairs [2]*bufferPair
	op    int
	// shared holds every array given to Share, and saved a copy of each
	// taken when it was made: the buffers must never write one.
	shared, saved []*[PageSize]byte
}

func (f *pagedFuzz) fail(format string, args ...any) {
	f.t.Helper()
	f.t.Fatalf("size %d, op %d: %s", f.pairs[0].flat.Size(), f.op, fmt.Sprintf(format, args...))
}

// addr draws a device offset: in range, wrapping past the size, next to
// a page boundary, one of a few hot offsets (so lanes repeat), or any.
func (f *pagedFuzz) addr(size int) uint32 {
	switch f.rng.Intn(5) {
	case 0:
		return uint32(f.rng.Intn(size))
	case 1:
		return uint32(size + f.rng.Intn(3*size))
	case 2:
		page := f.rng.Intn(size/PageSize + 2)
		return uint32(max(0, page*PageSize+f.rng.Intn(17)-8))
	case 3:
		return []uint32{0, 8, PageSize, uint32(size - 8)}[f.rng.Intn(4)]
	default:
		return f.rng.Uint32()
	}
}

// value is zero half the time, else one sparse byte or a random word.
func (f *pagedFuzz) value() uint64 {
	switch f.rng.Intn(4) {
	case 0, 1:
		return 0
	case 2:
		return uint64(1+f.rng.Intn(255)) << (8 * f.rng.Intn(8))
	default:
		return f.rng.Uint64()
	}
}

func (f *pagedFuzz) elem() int { return []int{1, 2, 4, 8}[f.rng.Intn(4)] }

// hostBytes is n bytes of host data: all zero, sparse, or random.
func (f *pagedFuzz) hostBytes(n int) []byte {
	data := make([]byte, n)
	switch f.rng.Intn(3) {
	case 0:
	case 1:
		for range f.rng.Intn(4) {
			if n > 0 {
				data[f.rng.Intn(n)] = byte(1 + f.rng.Intn(255))
			}
		}
	default:
		f.rng.Read(data)
	}
	return data
}

// hostRange draws a range of a size-byte surface that often crosses a
// page boundary and, when bad is set, one that does not fit.
func (f *pagedFuzz) hostRange(size int, bad bool) (off, n int) {
	if bad {
		switch f.rng.Intn(3) {
		case 0:
			return -1 - f.rng.Intn(8), f.rng.Intn(16)
		case 1:
			return size - f.rng.Intn(8), 9 + f.rng.Intn(8)
		default:
			return size + 1 + f.rng.Intn(8), 0
		}
	}
	if f.rng.Intn(2) == 0 && size > PageSize {
		off = PageSize*(1+f.rng.Intn(size/PageSize)) - f.rng.Intn(64)
		off = min(off, size)
	} else {
		off = f.rng.Intn(size + 1)
	}
	return off, f.rng.Intn(min(size-off, 2*PageSize+64) + 1)
}

// lanes draws 1 to 16 lane addresses and values, and an element size
// that is sometimes one no accessor takes.
func (f *pagedFuzz) lanes(size int) (addrs, vals []uint32, elem int) {
	n := 1 + f.rng.Intn(16)
	addrs, vals = make([]uint32, n), make([]uint32, n)
	for i := range addrs {
		addrs[i], vals[i] = f.addr(size), uint32(f.value())
	}
	elem = f.elem()
	if f.rng.Intn(20) == 0 {
		elem = []int{0, 3, 16}[f.rng.Intn(3)]
	}
	return addrs, vals, elem
}

// panicOf returns what f panics with, nil if it returns.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// share puts an array, read-only, at a random page of the pair that the
// paged side has not allocated, and writes the same bytes into the flat
// side. The array is a new one with random bytes, non-zero inside the
// surface, or a third of the time one shared before, so one array can
// sit in several pages of both pairs at once.
func (f *pagedFuzz) share(p *bufferPair) {
	var free []int
	for i, pg := range p.paged.pages {
		if pg == nil {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return
	}
	off := PageSize * free[f.rng.Intn(len(free))]
	n := min(PageSize, p.flat.Size()-off)
	var page, want *[PageSize]byte
	if k := len(f.shared); k > 0 && f.rng.Intn(3) == 0 {
		i := f.rng.Intn(k)
		page, want = f.shared[i], f.saved[i]
	} else {
		page = new([PageSize]byte)
		copy(page[:], f.hostBytes(PageSize))
		page[f.rng.Intn(n)] = byte(1 + f.rng.Intn(255))
		want = new([PageSize]byte)
		*want = *page
		f.shared, f.saved = append(f.shared, page), append(f.saved, want)
	}
	if err := p.paged.Share(off, page); err != nil {
		f.fail("Share(%d): %v", off, err)
	}
	copy(p.flat.Bytes()[off:], want[:n])
	// The page is allocated now, though a reused array may read zero
	// inside a smaller surface.
	p.written[off/PageSize] = true
}

// checkShared fails if any shared array differs from its saved copy.
func (f *pagedFuzz) checkShared() {
	f.t.Helper()
	for i, page := range f.shared {
		if *page != *f.saved[i] {
			f.fail("shared array %d was written", i)
		}
	}
}

// step runs one random operation on both sides of a pair and compares
// what each returns.
func (f *pagedFuzz) step() {
	p := f.pairs[f.rng.Intn(2)]
	size := p.flat.Size()
	if f.rng.Intn(25) == 0 {
		f.share(p)
		return
	}
	switch r := f.rng.Intn(100); {
	case r < 10:
		a, elem := f.addr(size), f.elem()
		if got, want := p.paged.LoadElem(a, elem), p.flat.LoadElem(a, elem); got != want {
			f.fail("LoadElem(%d, %d) = %#x, want %#x", a, elem, got, want)
		}
	case r < 20:
		a, elem, v := f.addr(size), f.elem(), f.value()
		p.paged.StoreElem(a, elem, v)
		p.flat.StoreElem(a, elem, v)
		p.wrote(p.flat.wrap(a, elem), elem, v)
	case r < 28:
		a, elem, v := f.addr(size), f.elem(), f.value()
		if got, want := p.paged.AtomicAdd(a, elem, v), p.flat.AtomicAdd(a, elem, v); got != want {
			f.fail("AtomicAdd(%d, %d, %#x) = %#x, want %#x", a, elem, v, got, want)
		}
		p.wrote(p.flat.wrap(a, elem), elem, v)
	case r < 36:
		addrs, _, elem := f.lanes(size)
		got, want := make([]uint32, len(addrs)), make([]uint32, len(addrs))
		gok, wok := p.paged.loadLanes(got, addrs, elem), p.flat.loadLanes(want, addrs, elem)
		if gok != (elem == 4) {
			f.fail("loadLanes(%v, %d) reports %v", addrs, elem, gok)
		}
		if !gok && wok {
			for i, a := range addrs {
				got[i] = uint32(p.paged.LoadElem(a, elem))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			f.fail("loadLanes(%v, %d) = %v, want %v", addrs, elem, got, want)
		}
	case r < 46:
		addrs, vals, elem := f.lanes(size)
		gok, wok := p.paged.storeLanes(addrs, vals, elem), p.flat.storeLanes(addrs, vals, elem)
		if gok != (elem == 4) {
			f.fail("storeLanes(%v, %v, %d) reports %v", addrs, vals, elem, gok)
		}
		if !gok && wok {
			p.paged.storeEach(addrs, vals, elem)
		}
		if wok {
			for i, a := range addrs {
				p.wrote(p.flat.wrap(a, elem), elem, uint64(vals[i]))
			}
		}
	case r < 56:
		addrs, vals, elem := f.lanes(size)
		// old aliases the addends a quarter of the time.
		got, want := make([]uint32, len(addrs)), make([]uint32, len(addrs))
		gvals, wvals := vals, vals
		if f.rng.Intn(4) == 0 {
			copy(got, vals)
			copy(want, vals)
			gvals, wvals = got, want
		}
		wok := p.flat.addLanes(want, addrs, wvals, elem)
		if wok {
			for i, a := range addrs {
				p.wrote(p.flat.wrap(a, elem), elem, uint64(vals[i]))
			}
		}
		gok := p.paged.addLanes(got, addrs, gvals, elem)
		if gok != (elem == 4 || elem == 8) {
			f.fail("addLanes(%v, %v, %d) reports %v", addrs, vals, elem, gok)
		}
		if !gok && wok {
			p.paged.addEach(got, addrs, gvals, elem)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			f.fail("addLanes(%v, %v, %d) = %v, want %v", addrs, vals, elem, got, want)
		}
	case r < 66:
		bad := f.rng.Intn(10) == 0
		off, n := f.hostRange(size, bad)
		data := f.hostBytes(max(n, 0))
		gn, err := p.paged.WriteAt(data, int64(off))
		if bad {
			if err == nil || gn != 0 {
				f.fail("WriteAt(%d bytes, %d) = %d, %v; want an error", len(data), off, gn, err)
			}
			break
		}
		if err != nil || gn != n {
			f.fail("WriteAt(%d bytes, %d) = %d, %v", n, off, gn, err)
		}
		copy(p.flat.Bytes()[off:], data)
		p.wroteBytes(off, data)
	case r < 74:
		bad := f.rng.Intn(10) == 0
		off, n := f.hostRange(size, bad)
		got := make([]byte, max(n, 0))
		for i := range got {
			got[i] = 0xEE // ReadAt must overwrite every byte
		}
		gn, err := p.paged.ReadAt(got, int64(off))
		switch {
		case bad && (err == nil || gn != 0):
			f.fail("ReadAt(%d bytes, %d) = %d, %v; want an error", len(got), off, gn, err)
		case !bad && (err != nil || gn != n || !bytes.Equal(got, p.flat.Bytes()[off:off+n])):
			f.fail("ReadAt(%d bytes, %d) = %d, %v, or the bytes differ", n, off, gn, err)
		}
	case r < 86:
		src := f.pairs[f.rng.Intn(2)]
		bad := f.rng.Intn(10) == 0
		soff, n := f.hostRange(src.flat.Size(), bad)
		doff := 0
		switch {
		case bad && f.rng.Intn(3) == 0:
			soff, n = f.rng.Intn(src.flat.Size()+1), -1-f.rng.Intn(8)
		case bad:
			doff = f.rng.Intn(size + 1)
		case src == p && f.rng.Intn(2) == 0:
			// An overlapping self-copy, up or down by less than n.
			doff = soff + f.rng.Intn(2*n+1) - n
			doff = max(0, min(doff, size-n))
		default:
			doff = f.rng.Intn(size - min(n, size) + 1)
		}
		if !bad && n > size-doff {
			n = size - doff
		}
		err := p.paged.CopyFrom(src.paged, soff, doff, n)
		if bad {
			if err == nil {
				f.fail("CopyFrom(src, %d, %d, %d) out of bounds did not fail", soff, doff, n)
			}
			break
		}
		if err != nil {
			f.fail("CopyFrom(src, %d, %d, %d): %v", soff, doff, n, err)
		}
		moved := bytes.Clone(src.flat.Bytes()[soff : soff+n])
		copy(p.flat.Bytes()[doff:doff+n], src.flat.Bytes()[soff:soff+n])
		p.wroteBytes(doff, moved)
	case r < 88:
		p.paged.Clear()
		clear(p.flat.Bytes())
		clear(p.written)
	case r < 92:
		off, n := f.rng.Intn(size+8)-4, f.rng.Intn(8)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(f.value())
		}
		gerr, werr := p.paged.WriteU32(off, vals...), p.flat.WriteU32(off, vals...)
		if (gerr == nil) != (werr == nil) {
			f.fail("WriteU32(%d, %v) = %v, want %v", off, vals, gerr, werr)
		}
		if werr == nil {
			for i, v := range vals {
				p.wrote(off+4*i, 4, uint64(v))
			}
		}
	case r < 96:
		off, n := f.rng.Intn(size+8)-4, f.rng.Intn(8)
		got, gerr := p.paged.ReadU32(off, n)
		want, werr := p.flat.ReadU32(off, n)
		if (gerr == nil) != (werr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
			f.fail("ReadU32(%d, %d) = %v %v, want %v %v", off, n, got, gerr, want, werr)
		}
	case r < 98:
		off, v := f.rng.Intn(size+8)-4, f.value()
		gerr, werr := p.paged.WriteU64(off, v), p.flat.WriteU64(off, v)
		if (gerr == nil) != (werr == nil) {
			f.fail("WriteU64(%d) = %v, want %v", off, gerr, werr)
		}
		if werr == nil {
			p.wroteBytes(off, binary.LittleEndian.AppendUint64(nil, v))
		}
	default:
		off := f.rng.Intn(size+8) - 4
		got, gerr := p.paged.ReadU64(off)
		want, werr := p.flat.ReadU64(off)
		if (gerr == nil) != (werr == nil) || got != want {
			f.fail("ReadU64(%d) = %#x %v, want %#x %v", off, got, gerr, want, werr)
		}
	}
}

// check compares a pair's whole contents, walks its allocated pages and
// requires each to be one the reference saw a non-zero write into.
func (f *pagedFuzz) check(p *bufferPair) {
	f.t.Helper()
	want := p.flat.Bytes()
	if p.paged.Size() != len(want) {
		f.fail("Size() = %d, want %d", p.paged.Size(), len(want))
	}
	if !bytes.Equal(contents(p.paged), want) {
		f.fail("contents differ from the flat reference")
	}
	next := 0
	p.paged.Pages(func(off int, page []byte) {
		if off < next || off%PageSize != 0 || len(page) != min(PageSize, len(want)-off) {
			f.fail("Pages gave %d bytes at offset %d after offset %d", len(page), off, next)
		}
		if !bytes.Equal(page, want[off:off+len(page)]) {
			f.fail("Pages gave page %d with bytes that differ from the reference", off/PageSize)
		}
		if !p.written[off/PageSize] {
			f.fail("page %d is allocated but never received a non-zero write", off/PageSize)
		}
		next = off + PageSize
	})
}

// TestPagedBufferMatchesFlat holds the paged Buffer to the flat one it
// replaced: random sequences of every element accessor, lane loop and
// host call, over zero and non-zero values, duplicate, wrapping and
// page-edge addresses, host ranges across pages, overlapping self-copies
// and Clear, on surfaces of one partial page up to sixteen pages, must
// read the same values and leave the same bytes, and a page may be
// allocated only once something non-zero was written into it. Shared
// pages join the sequences (the flat side writes their bytes), and no
// write may reach a shared array, one shared at several pages of both
// surfaces included: a zero store or a zeroing copy into a shared page
// must copy it as any other write does. The paged
// lane loops take 4-byte elements and 8-byte adds; for the other sizes
// the flat lane loops take, the paged surface's per-lane accessors
// (LoadElem, storeEach, addEach) must give the flat lane loop's result.
// Invalid element sizes must panic alike.
func TestPagedBufferMatchesFlat(t *testing.T) {
	sizes := []int{8, 200, PageSize, PageSize + 8, 3*PageSize + 8, 1 << 16, 10000}
	seeds, ops := 4, 3000
	if testing.Short() {
		seeds, ops = 2, 1000
	}
	for si, size := range sizes {
		for seed := range seeds {
			f := &pagedFuzz{t: t, rng: rand.New(rand.NewSource(int64(100*si + seed)))}
			for i, n := range []int{size, sizes[(si+seed+1)%len(sizes)]} {
				pb, err := NewBuffer(n)
				if err != nil {
					t.Fatal(err)
				}
				fb, err := newFlatBuffer(n)
				if err != nil {
					t.Fatal(err)
				}
				f.pairs[i] = &bufferPair{paged: pb, flat: fb, written: map[int]bool{}}
			}
			for f.op = 0; f.op < ops; f.op++ {
				f.step()
				if f.op%50 == 0 {
					f.check(f.pairs[0])
					f.check(f.pairs[1])
					f.checkShared()
				}
			}
			f.check(f.pairs[0])
			f.check(f.pairs[1])
			f.checkShared()
			if len(f.shared) == 0 {
				t.Fatalf("size %d, seed %d: no page was shared", size, seed)
			}
		}
	}

	pb, _ := NewBuffer(64)
	fb, _ := newFlatBuffer(64)
	for _, elem := range []int{0, 3, 16} {
		for _, c := range []struct {
			name      string
			got, want func()
		}{
			{"LoadElem", func() { pb.LoadElem(8, elem) }, func() { fb.LoadElem(8, elem) }},
			{"StoreElem", func() { pb.StoreElem(8, elem, 1) }, func() { fb.StoreElem(8, elem, 1) }},
			{"AtomicAdd", func() { pb.AtomicAdd(8, elem, 1) }, func() { fb.AtomicAdd(8, elem, 1) }},
		} {
			if got, want := panicOf(c.got), panicOf(c.want); got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s with element size %d panics with %v, want %v", c.name, elem, got, want)
			}
		}
	}
}

// TestNewBufferAllocs: creating a surface allocates its page table and
// nothing else, so a 1 MiB surface costs 256 table entries, not 1 MiB
// of zeroed memory.
func TestNewBufferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const size = 1 << 20
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := NewBuffer(size); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The allocator rounds the table up to its size class, by less than
	// a quarter.
	table := int64(size / PageSize * unsafe.Sizeof((*[PageSize]byte)(nil)))
	if got, want := r.AllocedBytesPerOp(), table*5/4+int64(unsafe.Sizeof(Buffer{})); got > want || r.AllocsPerOp() > 2 {
		t.Fatalf("NewBuffer(%d) allocates %d bytes in %d allocations, want at most %d bytes in 2: the Buffer and its table",
			size, got, r.AllocsPerOp(), want)
	}
}
