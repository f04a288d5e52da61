package runstate

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAtomic: the file appears with exactly the written content and
// no temp litter remains.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite is atomic too.
	if err := WriteFileAtomic(path, []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "world" {
		t.Fatalf("after overwrite: %q", got)
	}
	assertNoTemps(t, dir)
}

// TestWriteAtomicFailureLeavesTarget: a failing producer must leave the
// previous file untouched and clean up its temp file — the
// no-half-written-output guarantee.
func TestWriteAtomicFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("producer exploded")
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-writ") // partial payload that must never surface
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer's error", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "stable" {
		t.Fatalf("target corrupted by failed write: %q", got)
	}
	assertNoTemps(t, dir)
}

// TestDirArtifactDigest: artifacts round-trip through the state dir, and
// any byte damage is refused with ErrDigestMismatch instead of being
// returned.
func TestDirArtifactDigest(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload := []byte(`{"app":"juliaset","instrs":12345}`)
	if err := d.Commit("app|cfg|seed", payload, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	digest := Digest(payload)
	back, err := d.ReadArtifact("app|cfg|seed", digest)
	if err != nil || string(back) != string(payload) {
		t.Fatalf("round trip: %q, %v", back, err)
	}
	// Flip one byte on disk.
	p := d.UnitFile("app|cfg|seed", ".json")
	raw, _ := os.ReadFile(p)
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadArtifact("app|cfg|seed", digest); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("damaged artifact returned err %v, want ErrDigestMismatch", err)
	}
}

// commitDir opens a state dir for the Commit tests, closed at cleanup.
func commitDir(t *testing.T) *Dir {
	t.Helper()
	d, err := OpenDir(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// journaled returns every record d's journal holds.
func journaled(t *testing.T, d *Dir) []Record {
	t.Helper()
	rec, err := Recover(filepath.Join(d.Path, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// TestDirCommitRecFailure: a recording that cannot be written leaves
// neither an artifact nor a completion record.
func TestDirCommitRecFailure(t *testing.T) {
	d := commitDir(t)
	boom := errors.New("recording lost")
	err := d.Commit("u", []byte(`{"app":"a"}`), func(io.Writer) error { return boom }, 1, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want %v", err, boom)
	}
	if _, err := os.Stat(d.UnitFile("u", ".json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("artifact written after the recording failed: stat err = %v", err)
	}
	if recs := journaled(t, d); len(recs) != 0 {
		t.Fatalf("journal holds %+v after a failed commit", recs)
	}
	assertNoTemps(t, filepath.Join(d.Path, "units"))
}

// TestDirCommitArtifactFailure: an artifact that cannot be written
// leaves no completion record. units/ becomes a regular file, which
// fails the write even for root, whom file modes do not stop.
func TestDirCommitArtifactFailure(t *testing.T) {
	d := commitDir(t)
	units := filepath.Join(d.Path, "units")
	if err := os.RemoveAll(units); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(units, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit("u", []byte(`{"app":"a"}`), nil, 1, 0); err == nil {
		t.Fatal("Commit succeeded with units/ a regular file")
	}
	if recs := journaled(t, d); len(recs) != 0 {
		t.Fatalf("journal holds %+v after a failed artifact write", recs)
	}
}

// TestDirCommit: a commit writes the recording and the artifact, and a
// completion record carrying the artifact's digest, the attempts and the
// epoch, which ReadArtifact then verifies.
func TestDirCommit(t *testing.T) {
	d := commitDir(t)
	data := []byte(`{"app":"a","invocations":[1]}`)
	rec := func(w io.Writer) error {
		_, err := io.WriteString(w, "recording")
		return err
	}
	if err := d.Commit("u", data, rec, 3, 7); err != nil {
		t.Fatal(err)
	}
	recs := journaled(t, d)
	want := Record{Seq: 1, Status: StatusCompleted, Unit: "u", Digest: Digest(data), Attempt: 3, Epoch: 7}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("journal = %+v, want [%+v]", recs, want)
	}
	back, err := d.ReadArtifact("u", recs[0].Digest)
	if err != nil || string(back) != string(data) {
		t.Fatalf("ReadArtifact = %q, %v; want %q", back, err, data)
	}
	if blob, err := os.ReadFile(d.UnitFile("u", ".rec")); err != nil || string(blob) != "recording" {
		t.Fatalf("recording blob = %q, %v", blob, err)
	}
}

// TestUnitFileCollisionFree: keys that sanitize to the same name still
// map to distinct files.
func TestUnitFileCollisionFree(t *testing.T) {
	d := &Dir{Path: t.TempDir()}
	a := d.UnitFile("app/cfg", ".json")
	b := d.UnitFile("app|cfg", ".json")
	if a == b {
		t.Fatalf("distinct keys mapped to the same file %s", a)
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}
