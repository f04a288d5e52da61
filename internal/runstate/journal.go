package runstate

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// envelope is the on-disk line format: the CRC32 (IEEE) of the exact
// record bytes, then the record itself. Keeping the checksum outside the
// record lets the reader verify the raw bytes before trusting any field.
type envelope struct {
	CRC    uint32          `json:"c"`
	Record json.RawMessage `json:"r"`
}

// Journal is the append side of the run WAL, one method per status.
// Appends are serialized, assigned the next sequence number, and
// fsynced record-by-record, so after a method returns the record
// survives a crash. Each method takes the fleet fencing epoch the
// record is journaled under: a worker process passes its lease's
// epoch, so the coordinator can tell which dispatch of the unit
// produced the record, and every other writer passes 0. A Journal is
// safe for concurrent use by the worker pool.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	seq uint64
}

// Create opens (or creates) the journal at path for appending, first
// running crash recovery: the torn tail, if any, is truncated so new
// records land on a clean record boundary, and the returned Recovery
// describes every unit the previous run journaled. The sequence number
// continues from the last valid record.
func Create(path string) (*Journal, *Recovery, error) {
	rec, err := Recover(path)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("runstate: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runstate: open journal: %w", err)
	}
	// Drop the torn tail (recovery already proved bytes past ValidLen
	// are unparseable) and position appends after the last valid record.
	if err := f.Truncate(rec.ValidLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runstate: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(rec.ValidLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runstate: seek journal: %w", err)
	}
	return &Journal{f: f, seq: rec.MaxSeq}, rec, nil
}

// write durably appends one record, assigning it the next sequence
// number. The caller's Seq field is ignored.
func (j *Journal) write(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.Seq = j.seq + 1
	body, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runstate: marshal record: %w", err)
	}
	env, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(body), Record: body})
	if err != nil {
		return fmt.Errorf("runstate: marshal envelope: %w", err)
	}
	if _, err := j.f.Write(append(env, '\n')); err != nil {
		return fmt.Errorf("runstate: append record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("runstate: sync journal: %w", err)
	}
	j.seq = r.Seq
	mJournalRecords.Inc()
	return nil
}

// Started journals that a unit began executing.
func (j *Journal) Started(unit string, epoch uint64) error {
	return j.write(Record{Status: StatusStarted, Unit: unit, Epoch: epoch})
}

// Completed journals that a unit finished, binding it to the digest of
// its persisted artifact. The artifact must be durable first (WAL
// ordering); Dir.Commit, the one caller outside tests, makes it so.
func (j *Journal) Completed(unit, digest string, attempts int, epoch uint64) error {
	return j.write(Record{Status: StatusCompleted, Unit: unit, Digest: digest, Attempt: attempts, Epoch: epoch})
}

// Failed journals a unit's typed terminal failure.
func (j *Journal) Failed(unit string, attempts int, errText, class string, epoch uint64) error {
	return j.write(Record{Status: StatusFailed, Unit: unit, Attempt: attempts, Error: errText, Class: class, Epoch: epoch})
}

// Close releases the journal file. Records are already durable; Close
// never loses data.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
