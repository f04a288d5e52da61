package runstate

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"gtpin/internal/faults"
)

// TestJournalRoundTrip: records written through the journal come back
// from recovery verbatim, in order, with the lifecycle maps agreeing —
// the WAL-format smoke check CI runs on every push. A record in the
// older shape, with an attempt count no field reads, recovers too.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, rec, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.MaxSeq != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Started("alpha", 0))
	must(j.Completed("alpha", "digest-a", 0))
	must(j.Started("beta", 0))
	must(j.Failed("beta", "kernel hang", "permanent", 0))
	must(j.Started("gamma", 0)) // left in flight
	must(j.Close())
	appendRawRecord(t, path, `{"seq":6,"status":"completed","unit":"delta","digest":"digest-d","attempt":3}`)

	rec, err = Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Dropped) != 0 || rec.Torn {
		t.Fatalf("clean journal reported damage: %+v", rec.Dropped)
	}
	if len(rec.Records) != 6 || rec.MaxSeq != 6 {
		t.Fatalf("got %d records, max seq %d, want 6/6", len(rec.Records), rec.MaxSeq)
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if c := rec.Completed(); len(c) != 2 || c["alpha"].Digest != "digest-a" || c["delta"].Digest != "digest-d" {
		t.Fatalf("Completed() = %+v", c)
	}
	if f := rec.Failed(); len(f) != 1 || f["beta"].Error != "kernel hang" || f["beta"].Class != "permanent" {
		t.Fatalf("Failed() = %+v", f)
	}
	if inf := rec.InFlight(); len(inf) != 1 || inf["gamma"].Status != StatusStarted {
		t.Fatalf("InFlight() = %+v", inf)
	}
}

// appendRawRecord appends body to the journal at path as one line,
// framed with a valid CRC over exactly those bytes.
func appendRawRecord(t *testing.T, path, body string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, `{"c":%d,"r":%s}`+"\n", crc32.ChecksumIEEE([]byte(body)), body); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReopenContinuesSequence: a reopened journal appends with
// strictly increasing sequence numbers.
func TestJournalReopenContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Started("one", 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxSeq != 1 {
		t.Fatalf("recovered max seq %d, want 1", rec.MaxSeq)
	}
	if err := j2.Completed("one", "d", 0); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rec, err = Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.Records[1].Seq != 2 {
		t.Fatalf("after reopen: %+v", rec.Records)
	}
}

// TestJournalTornTailTruncated: an unterminated partial append is
// classified as a torn tail, truncated on reopen, and the journal keeps
// working from the last good record.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Started("u1", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Completed("u1", "d1", 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"c":123,"r":{"seq":3,"st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(rec.Records))
	}
	tornSeen := false
	for _, d := range rec.Dropped {
		if errors.Is(d, ErrTornTail) {
			tornSeen = true
		}
		if faults.ClassOf(d) != faults.Transient && !errors.Is(d, ErrCorruptRecord) && !errors.Is(d, ErrSeqRegression) {
			t.Errorf("dropped error not taxonomy-classified: %v", d)
		}
	}
	if !tornSeen {
		t.Fatalf("no ErrTornTail in %v", rec.Dropped)
	}
	// The tail is gone: appends continue at seq 3 and re-recover clean.
	if err := j2.Started("u2", 0); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rec, err = Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Dropped) != 0 || len(rec.Records) != 3 || rec.Records[2].Seq != 3 {
		t.Fatalf("post-truncation journal unclean: dropped=%v records=%+v", rec.Dropped, rec.Records)
	}
}

// TestRecoverMissingJournal: a missing journal is the empty state, not
// an error (first run of a sweep).
func TestRecoverMissingJournal(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "nope", "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("missing journal recovered %+v", rec)
	}
}

// TestRecoverSeqRegression: a replayed/duplicated record (stale seq) is
// dropped and classified, later valid records still load.
func TestRecoverSeqRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Started("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Completed("a", "d", 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate line 1 between the two records: seq 1 after seq 1.
	lines := splitLines(data)
	mut := append(append(append([]byte{}, lines[0]...), lines[0]...), lines[1]...)
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(rec.Records))
	}
	found := false
	for _, d := range rec.Dropped {
		if errors.Is(d, ErrSeqRegression) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ErrSeqRegression in %v", rec.Dropped)
	}
}

// splitLines splits keeping the trailing newline on each line.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, data[start:i+1])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
