package detsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"gtpin/internal/device"
)

// pagedSurfaces are surfaces of three pages and a partial fourth
// (3·4096+8 bytes): all zeros, and two layouts whose zero and non-zero
// pages alternate, one ending in a non-zero partial page.
func pagedSurfaces() [][]byte {
	const size = 3*pageSize + 8
	zero := make([]byte, size)
	a := make([]byte, size) // pages 0 and 2 non-zero, 1 and the tail zero
	b := make([]byte, size) // pages 1 and the tail non-zero, 0 and 2 zero
	for i := range a {
		if page := i / pageSize; page == 0 || page == 2 {
			a[i] = byte(i*7 + 1)
		} else {
			b[i] = byte(i*11 + 3)
		}
	}
	a[2*pageSize] = 0 // a non-zero page may start with a zero byte
	return [][]byte{zero, a, b}
}

// refDigest is surfaceDigest written from its definition: SHA-256 over
// the size, then each page holding a non-zero byte as its offset and the
// SHA-256 of its bytes.
func refDigest(data []byte) string {
	var enc []byte
	enc = binary.LittleEndian.AppendUint64(enc, uint64(len(data)))
	for off := 0; off < len(data); off += pageSize {
		page := data[off:min(off+pageSize, len(data))]
		for _, c := range page {
			if c != 0 {
				enc = binary.LittleEndian.AppendUint64(enc, uint64(off))
				sum := sha256.Sum256(page)
				enc = append(enc, sum[:]...)
				break
			}
		}
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// bufferOf returns a surface holding data, whose length must be a
// multiple of 8.
func bufferOf(t *testing.T, data []byte) *device.Buffer {
	t.Helper()
	b, err := device.NewBuffer(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(data, 0); err != nil || b.Size() != len(data) {
		t.Fatalf("a %d-byte surface of %d bytes: %v", len(data), b.Size(), err)
	}
	return b
}

// flip XORs byte i of b with 0xA5.
func flip(t *testing.T, b *device.Buffer, i int) {
	t.Helper()
	var c [1]byte
	if _, err := b.ReadAt(c[:], int64(i)); err != nil {
		t.Fatal(err)
	}
	c[0] ^= 0xA5
	if _, err := b.WriteAt(c[:], int64(i)); err != nil {
		t.Fatal(err)
	}
}

// TestSurfaceDigest: the page-sparse post-digest follows its definition,
// is equal for equal bytes, and tells apart every pair of surfaces that
// differ in one byte — in a non-zero page, inside an all-zero page, or
// in the partial last page — or only in how many zero bytes they end
// with. A page written non-zero and then zeroed digests as a page never
// written.
func TestSurfaceDigest(t *testing.T) {
	// seen maps each digest to the surface it came from: a surface
	// index and a flipped byte (-1 for none), or a name.
	type origin struct {
		surface, flipped int
		name             string
	}
	seen := make(map[string]origin)
	distinct := func(d string, o origin) {
		t.Helper()
		if prev, ok := seen[d]; ok {
			t.Fatalf("%+v and %+v share digest %s", o, prev, d)
		}
		seen[d] = o
	}
	for si, s := range pagedSurfaces() {
		b := bufferOf(t, s)
		base := surfaceDigest(b, nil)
		if want := refDigest(s); base != want {
			t.Fatalf("surface %d: digest %s, definition gives %s", si, base, want)
		}
		if got := surfaceDigest(bufferOf(t, bytes.Clone(s)), nil); got != base {
			t.Fatalf("surface %d: equal bytes digest to %s and %s", si, base, got)
		}
		distinct(base, origin{surface: si, flipped: -1})
		for i := range s {
			flip(t, b, i)
			distinct(surfaceDigest(b, nil), origin{surface: si, flipped: i})
			flip(t, b, i)
		}
		// Every page is allocated now, the zero ones included.
		if got := surfaceDigest(b, nil); got != base {
			t.Fatalf("surface %d: flipping every byte twice moved the digest", si)
		}
	}

	// A page written non-zero and zeroed again, next to one never written.
	const size = 3*pageSize + 8
	b := bufferOf(t, make([]byte, size))
	if err := b.WriteU64(pageSize+16, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteU64(pageSize+16, 0); err != nil {
		t.Fatal(err)
	}
	allocated := 0
	b.Pages(func(int, []byte) { allocated++ })
	if got, want := surfaceDigest(b, nil), refDigest(make([]byte, size)); allocated != 1 || got != want {
		t.Fatalf("a zeroed page (%d allocated) digests to %s, a never-written one to %s", allocated, got, want)
	}

	// Surfaces equal but for their count of trailing zero bytes.
	s := pagedSurfaces()[2]
	for _, pad := range []int{8, pageSize - 8, pageSize, pageSize + 8} {
		longer := append(bytes.Clone(s), make([]byte, pad)...)
		distinct(surfaceDigest(bufferOf(t, longer), nil), origin{name: fmt.Sprintf("surface 2 and %d zero bytes", pad)})
	}
	for _, n := range []int{8, 16, pageSize, pageSize + 8} {
		distinct(surfaceDigest(bufferOf(t, make([]byte, n)), nil), origin{name: fmt.Sprintf("%d zero bytes", n)})
	}
}

// TestSurfaceDigestReusesSums: a page of a surface that is still the
// array of its image page contributes the sum the image carries instead
// of its hashed bytes, and every other page is hashed: one written since
// it was shared, one copied rather than shared, and every page of an
// image without sums. The image here carries sums Capture's interner
// computed, and then a planted wrong sum, which shows which path each
// page takes.
func TestSurfaceDigestReusesSums(t *testing.T) {
	data := pagedSurfaces()[1] // pages 0 and 2 non-zero, 1 and the tail zero
	in := &interner{pages: make(map[string]SnippetPage)}
	img := in.image(bufferOf(t, data))
	if len(img) != 2 || img[0].sum == nil || img[1].sum == nil {
		t.Fatalf("the interner gave %d image pages, or pages without sums", len(img))
	}
	shared := func(img []SnippetPage) *device.Buffer {
		b, err := device.NewBuffer(len(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range img {
			if err := b.Share(p.Offset, (*[pageSize]byte)(p.Bytes)); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	want := refDigest(data)
	if got := surfaceDigest(shared(img), img); got != want {
		t.Fatalf("shared pages with their sums digest to %s, the definition gives %s", got, want)
	}

	// The same arrays with a wrong sum at offset 0.
	var wrong [32]byte
	planted := slices.Clone(img)
	planted[0].sum = &wrong
	if got := surfaceDigest(shared(planted), planted); got == want {
		t.Fatal("an unwritten shared page was hashed, not given its sum")
	}
	if got := surfaceDigest(bufferOf(t, data), planted); got != want {
		t.Fatal("a copied page, not the image's array, took the image's sum")
	}
	b := shared(planted)
	flip(t, b, 8)
	flip(t, b, 8) // page 0 holds its old bytes in a new array
	if got := surfaceDigest(b, planted); got != want {
		t.Fatal("a page written since it was shared took the image's sum")
	}
	noSums := slices.Clone(planted)
	noSums[0].sum, noSums[1].sum = nil, nil
	if got := surfaceDigest(shared(noSums), noSums); got != want {
		t.Fatal("a shared page without a sum was not hashed")
	}
}
