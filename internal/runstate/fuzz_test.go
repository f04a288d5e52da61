package runstate

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildJournal writes n records and returns the journal bytes plus the
// records by sequence number, for provenance checks.
func buildJournal(t testing.TB, n int) ([]byte, map[uint64]Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		unit := fmt.Sprintf("app-%d|hd4000|tiny|t1|s%d", i%7, i)
		switch i % 3 {
		case 0:
			err = j.Started(unit, 0)
		case 1:
			err = j.Completed(unit, fmt.Sprintf("digest-%d", i), 0)
		default:
			err = j.Failed(unit, "watchdog timeout", "permanent", 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := make(map[uint64]Record, len(rec.Records))
	for _, r := range rec.Records {
		orig[r.Seq] = r
	}
	return data, orig
}

// checkRecovered asserts the recovery invariants that matter: no error,
// every returned record is byte-for-byte one that was actually written
// (no corrupt data ever surfaces), and sequence numbers strictly
// increase.
func checkRecovered(t testing.TB, rec *Recovery, orig map[uint64]Record, label string) {
	t.Helper()
	var last uint64
	for _, r := range rec.Records {
		if r.Seq <= last {
			t.Fatalf("%s: seq not strictly increasing: %d after %d", label, r.Seq, last)
		}
		last = r.Seq
		want, ok := orig[r.Seq]
		if !ok {
			t.Fatalf("%s: recovery surfaced a record never written: %+v", label, r)
		}
		if r != want {
			t.Fatalf("%s: recovery surfaced corrupt data:\n got %+v\nwant %+v", label, r, want)
		}
	}
}

// TestRecoverTornAndBitFlipped sweeps randomized damage over a journal —
// truncation at every kind of offset and single-bit flips — and asserts
// recovery never errors and never returns a record that was not
// originally written. This is the crash-consistency contract the resume
// path stands on.
func TestRecoverTornAndBitFlipped(t *testing.T) {
	data, orig := buildJournal(t, 40)
	rng := rand.New(rand.NewSource(20260805))
	dir := t.TempDir()
	recoverBytes := func(mut []byte, label string) {
		t.Helper()
		path := filepath.Join(dir, "j.jsonl")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("%s: recovery errored: %v", label, err)
		}
		checkRecovered(t, rec, orig, label)
		// Reopening must truncate to a state that then recovers with no
		// torn tail.
		j, _, err := Create(path)
		if err != nil {
			t.Fatalf("%s: reopen after recovery: %v", label, err)
		}
		j.Close()
		rec2, err := Recover(path)
		if err != nil {
			t.Fatalf("%s: second recovery: %v", label, err)
		}
		if rec2.Torn {
			t.Fatalf("%s: torn tail survived truncation", label)
		}
		checkRecovered(t, rec2, orig, label+" (after truncation)")
	}

	for i := 0; i < 200; i++ {
		// Torn tail: truncate at a random byte offset.
		cut := rng.Intn(len(data) + 1)
		recoverBytes(append([]byte{}, data[:cut]...), fmt.Sprintf("truncate@%d", cut))

		// Bit flip: damage one random bit anywhere in the file.
		mut := append([]byte{}, data...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		recoverBytes(mut, fmt.Sprintf("bitflip@%d", pos))

		// Compound damage: truncate and flip.
		cut = rng.Intn(len(data) + 1)
		mut = append([]byte{}, data[:cut]...)
		if len(mut) > 0 {
			pos = rng.Intn(len(mut))
			mut[pos] ^= 1 << uint(rng.Intn(8))
		}
		recoverBytes(mut, fmt.Sprintf("truncate@%d+flip", cut))
	}
}

// FuzzRecover feeds arbitrary bytes to the recovery loader: it must
// never error on corruption, never panic, and any records it does
// return must be internally consistent (strictly increasing sequence
// numbers, valid statuses, non-empty unit keys).
func FuzzRecover(f *testing.F) {
	data, _ := buildJournal(f, 12)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(`{"c":0,"r":{"seq":1,"status":"started","unit":"x"}}` + "\n"))
	f.Add([]byte("not json at all\n\n\x00\xff"))
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Skip()
		}
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("recovery errored on arbitrary input: %v", err)
		}
		var last uint64
		for _, r := range rec.Records {
			if r.Seq <= last {
				t.Fatalf("seq regression surfaced: %d after %d", r.Seq, last)
			}
			last = r.Seq
			if r.Unit == "" {
				t.Fatalf("record with empty unit surfaced: %+v", r)
			}
			switch r.Status {
			case StatusStarted, StatusCompleted, StatusFailed:
			default:
				t.Fatalf("record with invalid status surfaced: %+v", r)
			}
		}
	})
}
