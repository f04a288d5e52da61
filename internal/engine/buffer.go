package engine

import (
	"encoding/binary"
	"fmt"
)

// Buffer is a byte-addressable memory surface bound to kernels through the
// binding table. Buffers are shared between host and device: the host
// writes inputs and reads results, the engine's send instructions gather,
// scatter, and atomically update elements.
//
// Addresses in send messages are byte offsets. Offsets are wrapped modulo
// the buffer size rather than faulting; real hardware would raise a page
// fault, but wrapping keeps synthetic workloads total while remaining
// deterministic.
type Buffer struct {
	data []byte
	// mask is len(data)-1 when the size is a power of two (the common
	// case), letting wrap use a bitwise AND instead of an integer
	// division on the per-lane access path; 0 selects the modulo path.
	mask int
}

// NewBuffer allocates a zeroed surface of the given size in bytes.
// The size is rounded up to a multiple of 8 so 64-bit accesses at any
// wrapped offset stay in bounds.
func NewBuffer(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("buffer size must be positive, got %d", size)
	}
	size = (size + 7) &^ 7
	b := &Buffer{data: make([]byte, size)}
	if size&(size-1) == 0 {
		b.mask = size - 1
	}
	return b, nil
}

// Size returns the buffer's capacity in bytes.
func (b *Buffer) Size() int { return len(b.data) }

// Bytes returns the backing store. Host-side code may read and write it
// directly; device-side access goes through the typed accessors below.
func (b *Buffer) Bytes() []byte { return b.data }

// wrap clamps a device byte offset into the buffer, aligned to elem bytes.
// An offset already below the size needs no reduction, which spares
// every in-range access to a non-power-of-two surface its division.
func (b *Buffer) wrap(off uint32, elem int) int {
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
func (b *Buffer) LoadElem(off uint32, elem int) uint64 {
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
func (b *Buffer) StoreElem(off uint32, elem int, v uint64) {
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
func (b *Buffer) AtomicAdd(off uint32, elem int, v uint64) uint64 {
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
func (b *Buffer) loadLanes(dst, addrs []uint32, elem int) bool {
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
func (b *Buffer) storeLanes(addrs, vals []uint32, elem int) bool {
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
func (b *Buffer) addLanes(old, addrs, vals []uint32, elem int) bool {
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
func (b *Buffer) WriteU32(off int, vals ...uint32) error {
	if off < 0 || off+4*len(vals) > len(b.data) {
		return fmt.Errorf("WriteU32: range [%d, %d) out of bounds (size %d)", off, off+4*len(vals), len(b.data))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b.data[off+4*i:], v)
	}
	return nil
}

// ReadU32 reads n little-endian 32-bit words starting at a byte offset.
func (b *Buffer) ReadU32(off, n int) ([]uint32, error) {
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
func (b *Buffer) ReadU64(off int) (uint64, error) {
	if off < 0 || off+8 > len(b.data) {
		return 0, fmt.Errorf("ReadU64: offset %d out of bounds (size %d)", off, len(b.data))
	}
	return binary.LittleEndian.Uint64(b.data[off:]), nil
}

// WriteU64 writes one little-endian 64-bit word at a byte offset.
func (b *Buffer) WriteU64(off int, v uint64) error {
	if off < 0 || off+8 > len(b.data) {
		return fmt.Errorf("WriteU64: offset %d out of bounds (size %d)", off, len(b.data))
	}
	binary.LittleEndian.PutUint64(b.data[off:], v)
	return nil
}

// Fill sets every byte to v.
func (b *Buffer) Fill(v byte) {
	for i := range b.data {
		b.data[i] = v
	}
}
