package engine

import (
	"bytes"
	"sync"
	"testing"
)

// sharedArray returns a page of non-zero bytes derived from seed.
func sharedArray(seed byte) *[PageSize]byte {
	p := new([PageSize]byte)
	for i := range p {
		p[i] = byte(i)*7 + seed | 1
	}
	return p
}

// TestBufferShareRefuses: Share takes only a page boundary inside the
// surface, the last partial page included, at a page not yet allocated
// or shared, and a non-nil array. It refuses everything else with an
// error and leaves the surface as it was.
func TestBufferShareRefuses(t *testing.T) {
	const size = 2*PageSize + 8
	b, err := NewBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteU32(16, 0xCAFE); err != nil { // allocates page 0
		t.Fatal(err)
	}
	page := sharedArray(3)
	if err := b.Share(2*PageSize, page); err != nil {
		t.Fatalf("the last, partial page: %v", err)
	}
	want := contents(b)
	for _, c := range []struct {
		name string
		off  int
		page *[PageSize]byte
	}{
		{"misaligned", PageSize + 8, page},
		{"negative", -PageSize, page},
		{"at the size", size, page},
		{"past the size", 3 * PageSize, page},
		{"allocated", 0, page},
		{"shared", 2 * PageSize, sharedArray(5)},
		{"nil", PageSize, nil},
	} {
		if err := b.Share(c.off, c.page); err == nil {
			t.Errorf("%s: Share(%d) succeeded", c.name, c.off)
		}
	}
	if !bytes.Equal(contents(b), want) {
		t.Error("a refused Share changed the surface")
	}
	if *page != *sharedArray(3) {
		t.Error("the shared array changed")
	}
}

// TestBufferShareConcurrent: buffers that share the same arrays write
// them through every write path at once (element stores, zero ones
// included, lane stores and adds, host writes, copies that zero, and
// Clear), each ending with the bytes a private copy gives, while the
// arrays stay as they were. Under the race detector, a write that
// reached a shared array would race with the other buffers' reads.
func TestBufferShareConcurrent(t *testing.T) {
	const size = 4 * PageSize
	arrays := []*[PageSize]byte{sharedArray(1), sharedArray(2)}
	saved := []*[PageSize]byte{sharedArray(1), sharedArray(2)}
	// build makes a surface holding arrays[0] at pages 0 and 2 and
	// arrays[1] at page 1, shared or, for the reference, written.
	build := func(share bool) *Buffer {
		b, err := NewBuffer(size)
		if err != nil {
			t.Error(err)
			return nil
		}
		for i, a := range []*[PageSize]byte{arrays[0], arrays[1], arrays[0]} {
			if share {
				err = b.Share(i*PageSize, a)
			} else {
				_, err = b.WriteAt(a[:], int64(i*PageSize))
			}
			if err != nil {
				t.Error(err)
			}
		}
		return b
	}
	// write runs worker w's writes, different per worker.
	write := func(b *Buffer, w int) {
		o := uint32(64 * w)
		b.StoreElem(o, 4, uint64(w+1))
		b.StoreElem(PageSize+o, 8, 0)
		addrs := []uint32{o + 8, 2*PageSize + o, 3*PageSize + o}
		vals := []uint32{uint32(w), 0, uint32(w) + 9}
		b.storeLanes(addrs, vals, 4)
		old := make([]uint32, len(addrs))
		b.addLanes(old, []uint32{PageSize + o + 16, 2*PageSize + o + 16}, []uint32{1, 2}, 4)
		b.addLanes(old, []uint32{o + 24, PageSize + o + 24}, []uint32{3, 4}, 8)
		if _, err := b.WriteAt([]byte{0, 0, 0, byte(w)}, int64(2*PageSize+o+32)); err != nil {
			t.Error(err)
		}
		// Zero a range of page 1 from the never-written page 3.
		if err := b.CopyFrom(b, 3*PageSize+512, PageSize+512+int(o), 32); err != nil {
			t.Error(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ref := build(true), build(false)
			if got == nil || ref == nil {
				return
			}
			write(got, w)
			write(ref, w)
			if !bytes.Equal(contents(got), contents(ref)) {
				t.Errorf("worker %d: a surface of shared pages ends unlike a written one", w)
			}
			got.Clear()
			if !bytes.Equal(contents(got), make([]byte, size)) {
				t.Errorf("worker %d: Clear left bytes behind", w)
			}
		}()
	}
	wg.Wait()
	for i := range arrays {
		if *arrays[i] != *saved[i] {
			t.Errorf("shared array %d was written", i)
		}
	}
}

// TestNewBufferSizeBound: NewBuffer creates a surface of MaxBufferSize
// bytes, whose last byte a 32-bit offset still reaches, and refuses
// anything larger, checked before the size is rounded and before a page
// table is allocated.
func TestNewBufferSizeBound(t *testing.T) {
	b, err := NewBuffer(MaxBufferSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte{0xA5}, MaxBufferSize-1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := b.ReadAt(got, MaxBufferSize-1); err != nil || got[0] != 0xA5 {
		t.Fatalf("the last byte reads %#x (%v), want 0xa5", got[0], err)
	}
	for _, size := range []int{MaxBufferSize + 1, 1 << 33} {
		if _, err := NewBuffer(size); err == nil {
			t.Errorf("NewBuffer(%d) made a surface larger than %d bytes", size, MaxBufferSize)
		}
	}
}
