package cofluent

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
)

// fingerprint is one computed Fingerprint result.
type fingerprint struct {
	sum string
	err error
}

// Fingerprint returns a content address of everything a replay of the
// recording reads: the app name, the translate target, each program's
// kernel names and executable fingerprints, and each call's fields and
// payload bytes. Recordings with equal fingerprints replay identically.
//
// The digest is computed on the first call and kept, so later calls
// cost a load; concurrent first calls each compute the same value. A
// recording does not change once it has been fingerprinted: code that
// edits one builds a new Recording.
func (r *Recording) Fingerprint() (string, error) {
	f := r.fp.Load()
	if f == nil {
		f = &fingerprint{}
		f.sum, f.err = r.fingerprint()
		r.fp.Store(f)
	}
	return f.sum, f.err
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

// fingerprint computes the recording's digest without the stored
// result.
func (r *Recording) fingerprint() (string, error) {
	w := keyWriter{h: sha256.New(), buf: make([]byte, 0, 256)}
	w.str(r.App)
	if r.Translate == nil {
		w.num(0)
	} else {
		w.num(1 + uint64(*r.Translate))
	}
	w.num(uint64(len(r.Programs)))
	for _, p := range r.Programs {
		w.num(uint64(len(p.Kernels)))
		for _, k := range p.Kernels {
			fp, err := k.Fingerprint()
			if err != nil {
				return "", fmt.Errorf("cofluent: recording %s: %w", r.App, err)
			}
			w.str(k.Name)
			w.str(fp)
		}
	}
	w.num(uint64(len(r.Calls)))
	for i := range r.Calls {
		c := &r.Calls[i]
		w.str(c.Name)
		w.str(c.Kernel)
		for _, v := range [...]int{c.Seq, int(c.Kind), c.Program, c.KID, c.ArgIdx, c.Buffer, c.Buffer2, c.Offset, c.Offset2, c.Size, c.GWS} {
			w.num(uint64(v))
		}
		w.num(uint64(c.ArgVal))
		w.flush(c.Payload)
	}
	w.flush(nil)
	return hex.EncodeToString(w.h.Sum(nil)), nil
}
