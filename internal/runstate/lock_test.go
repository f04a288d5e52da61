package runstate

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestDirLockExcludesConcurrentOpen is the journal-claim-race
// regression test: while one Dir holds a state directory, a second
// OpenDir of the same directory — the "resuming daemon vs concurrent
// CLI run" shape — must be refused with ErrStateDirLocked, and must
// succeed again once the holder closes.
func TestDirLockExcludesConcurrentOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")

	d1, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrStateDirLocked) {
		t.Fatalf("second OpenDir of a held dir: got %v, want ErrStateDirLocked", err)
	}
	if err := d1.Journal.Started("unit-a", 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir after holder closed: %v", err)
	}
	defer d2.Close()
	if got := len(d2.Recovered.InFlight()); got != 1 {
		t.Fatalf("recovered %d in-flight units, want 1", got)
	}
}

// TestDirLockRelease verifies Release is idempotent and nil-safe.
func TestDirLockRelease(t *testing.T) {
	dir := t.TempDir()
	l, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
	var nilLock *DirLock
	if err := nilLock.Release(); err != nil {
		t.Fatalf("nil Release: %v", err)
	}

	// Released dir is claimable again.
	l2, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()
}

// TestDirLockHeldByOtherDescriptor pins the flock semantics the guard
// relies on: two independent opens of the same LOCK file conflict even
// within one process (each os.Open creates its own open file
// description).
func TestDirLockHeldByOtherDescriptor(t *testing.T) {
	dir := t.TempDir()
	l1, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Release()
	if _, err := AcquireDirLock(dir); !errors.Is(err, ErrStateDirLocked) {
		t.Fatalf("second acquire: got %v, want ErrStateDirLocked", err)
	}
}

// TestOpenDirSweepsTornTemps: a SIGKILL can land inside
// WriteFileAtomic, stranding a ".tmp-" file next to the artifacts. The
// next OpenDir (the resume) must remove it — the published artifacts
// are renamed atomically, so any surviving temp is garbage — keeping a
// resumed directory byte-identical to an uninterrupted run's.
func TestOpenDirSweepsTornTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")

	d1, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Commit("unit-a", []byte(`{"ok":true}`), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "units", "unit-b.json.tmp-12345")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := os.Stat(torn); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn temp survived reopen: stat err = %v", err)
	}
	if _, err := os.Stat(d2.UnitFile("unit-a", ".json")); err != nil {
		t.Fatalf("published artifact swept too: %v", err)
	}
}
