// Package runstate makes long characterization sweeps crash-consistent.
//
// The paper's value proposition (Section III) is that full-application
// profiling — 25 applications, billions of dynamic instructions — is
// expensive enough that losing a run matters. This package provides the
// three pieces a sweep needs to survive a crash, an OOM-kill, or a
// Ctrl-C without discarding completed work:
//
//  1. an append-only run journal (Journal): a JSONL write-ahead log
//     with a per-record CRC32 and a monotonic sequence number, recording
//     each (app, kernel-config, fault-seed) unit as started, completed,
//     or failed, together with the digest of the unit's persisted
//     artifact;
//  2. a recovery loader (Recover): truncates a torn tail, verifies
//     CRCs, classifies corrupt records through the internal/faults
//     taxonomy, and never surfaces a corrupt record to the caller;
//  3. an atomic artifact writer (WriteAtomic): temp file + fsync +
//     rename (+ directory fsync), so no output file is ever observable
//     half-written.
//
// Dir ties them together as an on-disk state directory a harness points
// -state-dir at; -resume then skips journaled-complete units and
// re-executes in-flight ones.
package runstate

import "gtpin/internal/faults"

// Journal-recovery error kinds, minted from the shared taxonomy so
// harness failure tables classify them like every other error in the
// stack. All of them describe records that were dropped during
// recovery; recovery itself never fails because of them.
var (
	// ErrTornTail marks an incomplete final record — the classic
	// crash-mid-append shape. Transient in the taxonomy sense: the tail
	// is truncated and the journal continues from the last good record.
	ErrTornTail = faults.NewSentinel("torn journal tail", faults.Transient)

	// ErrCorruptRecord marks a mid-file record whose CRC32 or JSON
	// framing check failed (bit rot, partial overwrite). The record is
	// dropped; re-reading reproduces the drop, so it is permanent.
	ErrCorruptRecord = faults.NewSentinel("corrupt journal record", faults.Permanent)

	// ErrSeqRegression marks a record whose sequence number does not
	// advance the journal — a sign of interleaved writers or a recycled
	// file. The record is dropped.
	ErrSeqRegression = faults.NewSentinel("journal sequence regression", faults.Permanent)

	// ErrDigestMismatch is returned by Dir.ReadArtifact when an
	// artifact's bytes no longer hash to the digest its completion
	// record promised.
	ErrDigestMismatch = faults.NewSentinel("artifact digest mismatch", faults.Permanent)
)

// Status is the lifecycle state a journal record assigns to a unit.
type Status string

// The unit lifecycle. A unit with a Started record and no terminal
// record was in flight when the process died and must be re-executed on
// resume.
const (
	StatusStarted   Status = "started"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
)

// Record is one journal entry. Unit is an opaque caller-defined key
// identifying the work unit (the sweeps use app|config|scale|trial|
// fault-seed). Digest is the artifact digest for completed units;
// Error/Class carry the typed failure for failed ones. Older journals
// also carry an "attempt" count per record; decoding ignores it, and
// the CRC covers the raw record bytes, so those journals still recover.
//
// Epoch is the fencing token of the distributed fleet (internal/fleet):
// every dispatch of a unit to a worker process carries a fresh epoch,
// the worker journals its result under that epoch, and the coordinator
// accepts a terminal record only when its epoch matches the lease it
// currently holds valid — so a zombie worker whose lease was already
// re-dispatched cannot smuggle a late write into the merged report.
// Single-process sweeps leave it zero.
type Record struct {
	Seq    uint64 `json:"seq"`
	Status Status `json:"status"`
	Unit   string `json:"unit"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
	Class  string `json:"class,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
}
