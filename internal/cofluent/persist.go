package cofluent

// Recording persistence. CoFluent recordings outlive the capturing
// process — the paper generates one recording per application and replays
// it across trials, frequencies, and machines. Save/Load serialize the
// full recording (API stream with write payloads, kernel IR, and the
// translation target) with encoding/gob.

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"gtpin/internal/runstate"
)

// Save writes the recording to w, gzip-compressed (write-buffer payloads
// compress well).
func (r *Recording) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(r); err != nil {
		return fmt.Errorf("cofluent: save recording: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("cofluent: save recording: %w", err)
	}
	return nil
}

// Load reads a recording written by Save.
func Load(r io.Reader) (*Recording, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cofluent: load recording: %w", err)
	}
	defer zr.Close()
	var rec Recording
	if err := gob.NewDecoder(zr).Decode(&rec); err != nil {
		return nil, fmt.Errorf("cofluent: load recording: %w", err)
	}
	if len(rec.Calls) == 0 {
		return nil, fmt.Errorf("cofluent: load recording: empty call stream")
	}
	return &rec, nil
}

// SaveFile writes the recording to path atomically: a crash mid-save
// leaves either the previous recording or none, never a torn gzip
// stream.
func (r *Recording) SaveFile(path string) error {
	if err := runstate.WriteAtomic(path, r.Save); err != nil {
		return fmt.Errorf("cofluent: %w", err)
	}
	return nil
}

// LoadFile reads a recording from path.
func LoadFile(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cofluent: %w", err)
	}
	defer f.Close()
	return Load(f)
}
