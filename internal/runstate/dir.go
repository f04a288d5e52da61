package runstate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Dir is an on-disk sweep state directory:
//
//	<dir>/LOCK            exclusive flock claim of the live owner
//	<dir>/journal.jsonl   the run WAL
//	<dir>/units/          one artifact (and optional blobs) per unit
//
// Artifacts are written atomically and bound to the journal by digest:
// a completion record stores the SHA-256 of the artifact bytes, and
// ReadArtifact refuses bytes that no longer match, so a resume can
// never build its report from a corrupt or stale file.
type Dir struct {
	Path      string
	Journal   *Journal
	Recovered *Recovery
	lock      *DirLock
}

// OpenDir opens (creating if needed) a state directory, claiming it
// exclusively and running journal crash recovery. A directory whose
// lock another live process holds returns ErrStateDirLocked — a
// resuming daemon and a concurrent CLI run can never both replay the
// same journal. The Recovered field describes the previous run.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(filepath.Join(path, "units"), 0o755); err != nil {
		return nil, fmt.Errorf("runstate: state dir: %w", err)
	}
	lock, err := AcquireDirLock(path)
	if err != nil {
		return nil, err
	}
	j, rec, err := Create(filepath.Join(path, "journal.jsonl"))
	if err != nil {
		lock.Release()
		return nil, err
	}
	sweepTornTemps(filepath.Join(path, "units"))
	return &Dir{Path: path, Journal: j, Recovered: rec, lock: lock}, nil
}

// sweepTornTemps removes leftover WriteFileAtomic temp files. The
// rename that publishes an artifact is atomic, so any surviving
// ".tmp-" file is a write torn by a crash — and the exclusive flock
// guarantees no live writer shares the directory — making the sweep
// safe and keeping a resumed directory's contents identical to an
// uninterrupted run's. Best-effort: a file that cannot be removed is
// left for the next open rather than failing recovery.
func sweepTornTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), ".tmp-") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Close releases the journal and the directory claim.
func (d *Dir) Close() error {
	err := d.Journal.Close()
	if lerr := d.lock.Release(); err == nil {
		err = lerr
	}
	return err
}

// Digest returns the hex SHA-256 of an artifact's bytes — the value
// completion records carry.
func Digest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// UnitFile maps a unit key to a stable file path under units/. The key
// is sanitized for the filesystem and suffixed with a short hash so
// distinct keys can never collide after sanitization.
func (d *Dir) UnitFile(unit, ext string) string {
	return UnitFilePath(d.Path, unit, ext)
}

// UnitFilePath is Dir.UnitFile without an open Dir: the path a unit's
// artifact lives at inside the state directory rooted at dir. The fleet
// coordinator uses it to harvest artifacts from a worker's state dir
// without claiming the worker's flock (the worker — or its zombie —
// still owns the directory; the coordinator only reads bytes it can
// digest-verify against the worker's journal).
func UnitFilePath(dir, unit, ext string) string {
	clean := make([]byte, 0, len(unit))
	for i := 0; i < len(unit); i++ {
		c := unit[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	return filepath.Join(dir, "units",
		fmt.Sprintf("%s-%08x%s", clean, crc32.ChecksumIEEE([]byte(unit)), ext))
}

// Commit makes a finished unit durable and is the only writer of a
// completion record: the recording blob first when rec is non-nil, then
// the artifact data, then the completion record binding the artifact's
// digest and attempt count under epoch (0 outside a fleet worker). Each
// file is atomic and durable before the next write starts, so a crash
// or a failed write leaves either no completion record or one whose
// artifact verifies.
func (d *Dir) Commit(unit string, data []byte, rec func(io.Writer) error, attempts int, epoch uint64) error {
	if rec != nil {
		if err := WriteAtomic(d.UnitFile(unit, ".rec"), rec); err != nil {
			return err
		}
	}
	if err := WriteFileAtomic(d.UnitFile(unit, ".json"), data); err != nil {
		return err
	}
	mArtifactsWritten.Inc()
	mArtifactBytes.Add(uint64(len(data)))
	return d.Journal.Completed(unit, Digest(data), attempts, epoch)
}

// ReadArtifact loads a unit's artifact and verifies it against the
// digest its completion record journaled. Any mismatch — truncation,
// bit rot, a stale file from an earlier configuration — returns
// ErrDigestMismatch so the caller re-executes the unit instead of
// trusting the bytes.
func (d *Dir) ReadArtifact(unit, wantDigest string) ([]byte, error) {
	return ReadVerifiedArtifact(d.Path, unit, wantDigest)
}

// ReadVerifiedArtifact is Dir.ReadArtifact without an open Dir: load
// the unit's artifact from the state directory rooted at dir and verify
// it against the journaled digest. Safe on a directory another process
// has flocked — it only reads, and the digest check rejects anything
// not yet durable.
func ReadVerifiedArtifact(dir, unit, wantDigest string) ([]byte, error) {
	data, err := os.ReadFile(UnitFilePath(dir, unit, ".json"))
	if err != nil {
		return nil, fmt.Errorf("runstate: artifact for %s: %w", unit, err)
	}
	if got := Digest(data); got != wantDigest {
		return nil, fmt.Errorf("runstate: artifact for %s: %w: sha256 %s != journaled %s",
			unit, ErrDigestMismatch, got, wantDigest)
	}
	return data, nil
}
