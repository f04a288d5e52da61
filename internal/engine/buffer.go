package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity at which a Buffer allocates memory: a
// surface is a table of PageSize-byte pages, and a page exists only once
// a non-zero value has been written into it.
const PageSize = 4096

const (
	pageShift = 12 // log2(PageSize)
	pageMask  = PageSize - 1
)

// inlinePages is how many pages a Buffer's table holds inside the
// Buffer itself; larger surfaces allocate their table separately.
const inlinePages = 4

// zeroPage is what an unallocated page reads as. Nothing writes it.
var zeroPage [PageSize]byte

// Buffer is a byte-addressable memory surface bound to kernels through the
// binding table. Buffers are shared between host and device: the host
// writes inputs and reads results, the engine's send instructions gather,
// scatter, and atomically update elements.
//
// Addresses in send messages are byte offsets. Offsets are wrapped modulo
// the buffer size rather than faulting; real hardware would raise a page
// fault, but wrapping keeps synthetic workloads total while remaining
// deterministic.
//
// The surface is a table of PageSize-byte pages. A page that was never
// allocated reads as zeros, and a page is allocated only when a non-zero
// byte is first written into it, so a surface costs what it holds, not
// its size. Host code reads and writes through ReadAt, WriteAt, CopyFrom,
// Pages and Clear; no method hands out the backing store for writing.
// A Buffer must not be copied by value: small tables live inside it.
//
// A page may also be shared (Share): an array the buffer reads but never
// writes, which other buffers may read at the same time. The first write
// into a shared page copies it, so a surface built from a read-only
// image pays only for the pages it writes.
type Buffer struct {
	// pages[i] holds bytes [i*PageSize, (i+1)*PageSize), nil while they
	// are all zero. The last page may extend past size; those bytes are
	// never read or written. Reads take their page from here.
	pages []*[PageSize]byte
	// own[i] is pages[i] when the buffer may write that page in place,
	// and nil when it is shared or unallocated. Writes take their page
	// from here. Until the first Share, own is pages itself.
	own       []*[PageSize]byte
	inline    [inlinePages]*[PageSize]byte
	ownInline [inlinePages]*[PageSize]byte // own's table after a Share, for small surfaces
	size      int
	// mask is size-1 when the size is a power of two (the common case),
	// letting wrap use a bitwise AND instead of an integer division on
	// the per-lane access path; 0 selects the modulo path.
	mask int
}

// MaxBufferSize is the largest surface NewBuffer creates: send messages
// address a surface with 32-bit offsets, so no byte beyond it could be
// reached, and the page table of a larger claim would cost memory for
// nothing.
const MaxBufferSize = 1 << 32

// NewBuffer creates a zeroed surface of the given size in bytes, at most
// MaxBufferSize. It allocates only the page table. The size is rounded
// up to a multiple of 8 so 64-bit accesses at any wrapped offset stay in
// bounds.
func NewBuffer(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("buffer size must be positive, got %d", size)
	}
	if uint64(size) > MaxBufferSize {
		return nil, fmt.Errorf("buffer size %d exceeds the %d-byte limit", size, uint64(MaxBufferSize))
	}
	size = (size + 7) &^ 7
	b := &Buffer{size: size}
	if n := (size + pageMask) >> pageShift; n <= inlinePages {
		b.pages = b.inline[:n]
	} else {
		b.pages = make([]*[PageSize]byte, n)
	}
	b.own = b.pages
	if size&(size-1) == 0 {
		b.mask = size - 1
	}
	return b, nil
}

// Size returns the buffer's capacity in bytes.
func (b *Buffer) Size() int { return b.size }

// read returns the page holding byte o, or the zero page when that page
// is unallocated. The result must not be written.
func (b *Buffer) read(o int) *[PageSize]byte {
	if p := b.pages[o>>pageShift]; p != nil {
		return p
	}
	return &zeroPage
}

// alloc gives the buffer its own page holding byte o, whose own entry
// is nil: a copy of the shared page there, or a zeroed page when none is
// allocated.
func (b *Buffer) alloc(o int) *[PageSize]byte {
	i := o >> pageShift
	p := new([PageSize]byte)
	if s := b.pages[i]; s != nil {
		*p = *s
	}
	b.pages[i], b.own[i] = p, p
	return p
}

// Share puts page at byte offset off, which must be page-aligned, inside
// the surface, and in a page not yet allocated. The buffer reads page
// there but never writes it: the first write into that page copies it.
// The caller must not change page while the buffer may read it.
func (b *Buffer) Share(off int, page *[PageSize]byte) error {
	if page == nil {
		return fmt.Errorf("Share: nil page at offset %d", off)
	}
	if off < 0 || off >= b.size || off&pageMask != 0 {
		return fmt.Errorf("Share: offset %d is not a page boundary inside the surface (size %d)", off, b.size)
	}
	i := off >> pageShift
	if b.pages[i] != nil {
		return fmt.Errorf("Share: page at offset %d is already allocated", off)
	}
	if &b.own[0] == &b.pages[0] {
		// Every page allocated so far is the buffer's own.
		if n := len(b.pages); n <= inlinePages {
			b.own = b.ownInline[:n]
		} else {
			b.own = make([]*[PageSize]byte, n)
		}
		copy(b.own, b.pages)
	}
	b.pages[i] = page
	return nil
}

// wrap clamps a device byte offset into the buffer, aligned to elem bytes.
func (b *Buffer) wrap(off uint32, elem int) int { return wrapOff(off, elem, b.size, b.mask) }

// wrapOff is wrap for a surface of n bytes with the given mask, so the
// lane loops can keep both in registers. An offset already below the
// size needs no reduction, which spares every in-range access to a
// non-power-of-two surface its division. The size is a multiple of 8
// and so of every valid element size, so an aligned element never
// straddles a page.
func wrapOff(off uint32, elem, n, mask int) int {
	var o int
	if mask != 0 {
		o = int(off) & mask
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

// validElem reports whether elem is an element size the typed accessors
// take: 1, 2, 4 or 8 bytes.
func validElem(elem int) bool {
	return elem == 1 || elem == 2 || elem == 4 || elem == 8
}

// LoadElem reads one element of elem bytes (1, 2, 4, or 8) at the wrapped
// offset, zero-extended to 64 bits.
func (b *Buffer) LoadElem(off uint32, elem int) uint64 {
	if !validElem(elem) {
		panic(fmt.Sprintf("LoadElem: bad element size %d", elem))
	}
	o := b.wrap(off, elem)
	p := b.read(o)[o&pageMask:]
	switch elem {
	case 1:
		return uint64(p[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p))
	default:
		return binary.LittleEndian.Uint64(p)
	}
}

// StoreElem writes one element of elem bytes at the wrapped offset,
// truncating v. Storing zero into an unallocated page leaves it
// unallocated.
func (b *Buffer) StoreElem(off uint32, elem int, v uint64) {
	if !validElem(elem) {
		panic(fmt.Sprintf("StoreElem: bad element size %d", elem))
	}
	o := b.wrap(off, elem)
	page := b.own[o>>pageShift]
	if page == nil {
		if v<<(64-8*elem) == 0 && b.pages[o>>pageShift] == nil {
			return
		}
		page = b.alloc(o)
	}
	p := page[o&pageMask:]
	switch elem {
	case 1:
		p[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v))
	default:
		binary.LittleEndian.PutUint64(p, v)
	}
}

// AtomicAdd adds v to the element at the wrapped offset and returns the
// previous value. Engine execution is single-goroutine, so no host-level
// synchronization is needed; "atomic" refers to the device semantics
// (read-modify-write as one message).
func (b *Buffer) AtomicAdd(off uint32, elem int, v uint64) uint64 {
	old := b.LoadElem(off, elem)
	b.StoreElem(off, elem, old+v)
	return old
}

// loadLanes, storeLanes and addLanes are the lane loops of an
// unpredicated, unobserved gather, scatter and atomic add: lane i
// accesses the wrapped offset addrs[i] exactly as LoadElem, StoreElem
// and AtomicAdd do, and lanes run in order (so duplicate addresses
// resolve as they do lane by lane). They take the element sizes the
// workloads and GT-Pin's rewriter emit: loadLanes and storeLanes 4-byte
// elements, addLanes 4- and 8-byte ones (TestRosterSendsTakeLaneLoops
// in internal/workloads pins that traffic). Each reports false,
// touching nothing, for any other size, leaving the caller to take the
// per-lane path.
//
// A lane looks its page up once. An element of elem bytes starts at a
// multiple of elem, so within its page it starts at o&(PageSize-elem),
// at most PageSize-elem, which needs no bounds check. Stores and adds
// look pages up in own. One that meets a page the buffer does not own
// hands that lane and the rest to the per-lane accessors, which copy a
// shared page and allocate an unallocated one unless the lane writes
// zero; leaving the loop, rather than allocating in it, keeps the
// loop's values in registers.

// loadLanes sets dst[i] to the 4-byte element at addrs[i].
func (b *Buffer) loadLanes(dst, addrs []uint32, elem int) bool {
	if elem != 4 {
		return false
	}
	pages, n, mask, dst := b.pages, b.size, b.mask, dst[:len(addrs)]
	for i, a := range addrs {
		o := wrapOff(a, 4, n, mask)
		if p := pages[o>>pageShift]; p != nil {
			j := uint(o) & (PageSize - 4)
			dst[i] = binary.LittleEndian.Uint32(p[j : j+4 : j+4])
		} else {
			dst[i] = 0
		}
	}
	return true
}

// storeLanes writes vals[i] as the 4-byte element at addrs[i].
func (b *Buffer) storeLanes(addrs, vals []uint32, elem int) bool {
	if elem != 4 {
		return false
	}
	own, n, mask, vals := b.own, b.size, b.mask, vals[:len(addrs)]
	for i, a := range addrs {
		o := wrapOff(a, 4, n, mask)
		p := own[o>>pageShift]
		if p == nil {
			return b.storeEach(addrs[i:], vals[i:], 4)
		}
		j := uint(o) & (PageSize - 4)
		binary.LittleEndian.PutUint32(p[j:j+4:j+4], vals[i])
	}
	return true
}

// storeEach is storeLanes lane by lane through StoreElem.
func (b *Buffer) storeEach(addrs, vals []uint32, elem int) bool {
	for i, a := range addrs {
		b.StoreElem(a, elem, uint64(vals[i]))
	}
	return true
}

// addLanes adds vals[i] to the element at addrs[i] and sets old[i] to
// the low 32 bits of its previous value. Each lane reads its address and
// addend before writing old[i], so old may alias either.
func (b *Buffer) addLanes(old, addrs, vals []uint32, elem int) bool {
	own, n, mask := b.own, b.size, b.mask
	old, vals = old[:len(addrs)], vals[:len(addrs)]
	switch elem {
	case 4:
		for i, a := range addrs {
			o := wrapOff(a, 4, n, mask)
			p := own[o>>pageShift]
			if p == nil {
				return b.addEach(old[i:], addrs[i:], vals[i:], 4)
			}
			j := uint(o) & (PageSize - 4)
			e := p[j : j+4 : j+4]
			v := binary.LittleEndian.Uint32(e)
			binary.LittleEndian.PutUint32(e, v+vals[i])
			old[i] = v
		}
	case 8:
		for i, a := range addrs {
			o := wrapOff(a, 8, n, mask)
			p := own[o>>pageShift]
			if p == nil {
				return b.addEach(old[i:], addrs[i:], vals[i:], 8)
			}
			j := uint(o) & (PageSize - 8)
			e := p[j : j+8 : j+8]
			v := binary.LittleEndian.Uint64(e)
			binary.LittleEndian.PutUint64(e, v+uint64(vals[i]))
			old[i] = uint32(v)
		}
	default:
		return false
	}
	return true
}

// addEach is addLanes lane by lane through AtomicAdd.
func (b *Buffer) addEach(old, addrs, vals []uint32, elem int) bool {
	for i, a := range addrs {
		old[i] = uint32(b.AtomicAdd(a, elem, uint64(vals[i])))
	}
	return true
}

// The host API moves bytes between the surface and host memory, or
// between surfaces, a page at a time. Each call checks its whole range
// first and touches nothing when it does not fit.

// inRange reports whether [off, off+n) lies inside a surface of size
// bytes.
func inRange(off, n int64, size int) bool {
	return off >= 0 && n >= 0 && off <= int64(size) && n <= int64(size)-off
}

// ReadAt copies len(p) bytes starting at byte offset off into p. It
// implements io.ReaderAt, except that a range that does not fit reads
// nothing and fails.
func (b *Buffer) ReadAt(p []byte, off int64) (int, error) {
	if !inRange(off, int64(len(p)), b.size) {
		return 0, fmt.Errorf("ReadAt: range [%d, %d) out of bounds (size %d)", off, off+int64(len(p)), b.size)
	}
	b.readAt(p, int(off))
	return len(p), nil
}

// readAt is ReadAt for a range already checked.
func (b *Buffer) readAt(p []byte, o int) {
	for len(p) > 0 {
		n := copy(p, b.read(o)[o&pageMask:])
		o, p = o+n, p[n:]
	}
}

// WriteAt copies p into the surface starting at byte offset off. It
// implements io.WriterAt, except that a range that does not fit writes
// nothing and fails. Only the pages p puts a non-zero byte into are
// allocated.
func (b *Buffer) WriteAt(p []byte, off int64) (int, error) {
	if !inRange(off, int64(len(p)), b.size) {
		return 0, fmt.Errorf("WriteAt: range [%d, %d) out of bounds (size %d)", off, off+int64(len(p)), b.size)
	}
	b.writeAt(p, int(off))
	return len(p), nil
}

// writeAt is WriteAt for a range already checked.
func (b *Buffer) writeAt(p []byte, o int) {
	for len(p) > 0 {
		n := min(len(p), PageSize-o&pageMask)
		b.put(o, p[:n])
		o, p = o+n, p[n:]
	}
}

// put writes src at byte o; the range lies within one page. An all-zero
// src leaves an unallocated page unallocated.
func (b *Buffer) put(o int, src []byte) {
	p := b.own[o>>pageShift]
	if p == nil {
		if b.pages[o>>pageShift] == nil && bytes.Equal(src, zeroPage[:len(src)]) {
			return
		}
		p = b.alloc(o)
	}
	copy(p[o&pageMask:], src)
}

// zero clears n bytes at byte o; the range lies within one page. A
// shared page is copied first: its bytes there may be non-zero.
func (b *Buffer) zero(o, n int) {
	p := b.own[o>>pageShift]
	if p == nil {
		if b.pages[o>>pageShift] == nil {
			return
		}
		p = b.alloc(o)
	}
	clear(p[o&pageMask:][:n])
}

// CopyFrom copies n bytes from src at srcOff into the buffer at dstOff,
// with copy's semantics when src is the buffer itself and the ranges
// overlap: the result is as if the source bytes were read in full
// before any was written. Only the pages it puts a non-zero byte into
// are allocated.
func (b *Buffer) CopyFrom(src *Buffer, srcOff, dstOff, n int) error {
	if !inRange(int64(srcOff), int64(n), src.size) || !inRange(int64(dstOff), int64(n), b.size) {
		return fmt.Errorf("CopyFrom: source [%d, %d) of %d bytes or destination [%d, %d) of %d bytes out of bounds",
			srcOff, srcOff+n, src.size, dstOff, dstOff+n, b.size)
	}
	// Chunks end at page boundaries of both ranges. Copying upwards
	// within one buffer goes from the last chunk to the first, so no
	// chunk overwrites source bytes a later chunk reads; every other
	// copy goes first to last.
	backward := src == b && dstOff > srcOff
	for done := 0; done < n; {
		var s, d, c int
		if backward {
			s, d = srcOff+n-done, dstOff+n-done // chunk ends
			c = min(n-done, s-(s-1)&^pageMask, d-(d-1)&^pageMask)
			s, d = s-c, d-c
		} else {
			s, d = srcOff+done, dstOff+done
			c = min(n-done, PageSize-s&pageMask, PageSize-d&pageMask)
		}
		if p := src.pages[s>>pageShift]; p != nil {
			b.put(d, p[s&pageMask:][:c])
		} else {
			b.zero(d, c)
		}
		done += c
	}
	return nil
}

// Pages calls f with each allocated page in offset order: its byte
// offset and its bytes, the last page cut at the surface's size. Pages
// never allocated are all zero and skipped; an allocated page may be all
// zero too. A shared page is passed as the array Share was given. f must
// not modify or retain page.
func (b *Buffer) Pages(f func(off int, page []byte)) {
	for i, p := range b.pages {
		if p != nil {
			off := i << pageShift
			f(off, p[:min(PageSize, b.size-off)])
		}
	}
}

// Clear zeroes the surface by dropping every page, shared ones included.
func (b *Buffer) Clear() {
	clear(b.pages)
	b.own = b.pages
}

// WriteU32 writes host data as little-endian 32-bit words starting at a
// byte offset, for test and workload setup.
func (b *Buffer) WriteU32(off int, vals ...uint32) error {
	if !inRange(int64(off), 4*int64(len(vals)), b.size) {
		return fmt.Errorf("WriteU32: range [%d, %d) out of bounds (size %d)", off, off+4*len(vals), b.size)
	}
	var w [4]byte
	for i, v := range vals {
		binary.LittleEndian.PutUint32(w[:], v)
		b.writeAt(w[:], off+4*i)
	}
	return nil
}

// ReadU32 reads n little-endian 32-bit words starting at a byte offset.
func (b *Buffer) ReadU32(off, n int) ([]uint32, error) {
	if !inRange(int64(off), 4*int64(n), b.size) {
		return nil, fmt.Errorf("ReadU32: range [%d, %d) out of bounds (size %d)", off, off+4*n, b.size)
	}
	out := make([]uint32, n)
	var w [4]byte
	for i := range out {
		b.readAt(w[:], off+4*i)
		out[i] = binary.LittleEndian.Uint32(w[:])
	}
	return out, nil
}

// ReadU64 reads one little-endian 64-bit word at a byte offset.
func (b *Buffer) ReadU64(off int) (uint64, error) {
	if !inRange(int64(off), 8, b.size) {
		return 0, fmt.Errorf("ReadU64: offset %d out of bounds (size %d)", off, b.size)
	}
	var w [8]byte
	b.readAt(w[:], off)
	return binary.LittleEndian.Uint64(w[:]), nil
}

// WriteU64 writes one little-endian 64-bit word at a byte offset.
func (b *Buffer) WriteU64(off int, v uint64) error {
	if !inRange(int64(off), 8, b.size) {
		return fmt.Errorf("WriteU64: offset %d out of bounds (size %d)", off, b.size)
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	b.writeAt(w[:], off)
	return nil
}
