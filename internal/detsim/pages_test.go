package detsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
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

// refDigest is surfaceDigest written from its definition: the size,
// then each page holding a non-zero byte as its offset and bytes.
func refDigest(data []byte) string {
	var enc []byte
	enc = binary.LittleEndian.AppendUint64(enc, uint64(len(data)))
	for off := 0; off < len(data); off += pageSize {
		page := data[off:min(off+pageSize, len(data))]
		for _, c := range page {
			if c != 0 {
				enc = binary.LittleEndian.AppendUint64(enc, uint64(off))
				enc = append(enc, page...)
				break
			}
		}
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestSurfaceDigest: the page-sparse post-digest follows its definition,
// is equal for equal bytes, and tells apart every pair of surfaces that
// differ in one byte — in a non-zero page, inside an all-zero page, or
// in the partial last page — or only in how many zero bytes they end
// with.
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
		base := surfaceDigest(s)
		if want := refDigest(s); base != want {
			t.Fatalf("surface %d: digest %s, definition gives %s", si, base, want)
		}
		if got := surfaceDigest(bytes.Clone(s)); got != base {
			t.Fatalf("surface %d: equal bytes digest to %s and %s", si, base, got)
		}
		distinct(base, origin{surface: si, flipped: -1})
		for i := range s {
			s[i] ^= 0xA5
			distinct(surfaceDigest(s), origin{surface: si, flipped: i})
			s[i] ^= 0xA5
		}
		if got := surfaceDigest(s); got != base {
			t.Fatalf("surface %d: flipping every byte twice moved the digest", si)
		}
	}

	// Surfaces equal but for their count of trailing zero bytes.
	s := pagedSurfaces()[2]
	for _, pad := range []int{8, pageSize - 8, pageSize, pageSize + 8} {
		longer := append(bytes.Clone(s), make([]byte, pad)...)
		distinct(surfaceDigest(longer), origin{name: fmt.Sprintf("surface 2 and %d zero bytes", pad)})
	}
	for _, n := range []int{8, 16, pageSize, pageSize + 8} {
		distinct(surfaceDigest(make([]byte, n)), origin{name: fmt.Sprintf("%d zero bytes", n)})
	}
}
