package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// leaseFile is the on-disk handoff from coordinator to worker: one work
// unit, self-contained, under one fencing epoch. The file is named
// <epoch>.lease (epochs are globally monotonic, so names never collide)
// and written atomically, so a worker either sees a complete lease or
// none — the corrupt-lease path below only triggers when the file
// itself was damaged after publication.
type leaseFile struct {
	UnitIdx int            `json:"unit_idx"`
	Key     string         `json:"key"`
	Epoch   uint64         `json:"epoch"`
	Unit    workloads.Unit `json:"unit"`
}

const (
	leaseExt   = ".lease"
	corruptExt = ".corrupt"
	stopMarker = "STOP"
)

// inboxDir is where a worker receives leases and the stop marker.
func inboxDir(workerDir string) string { return filepath.Join(workerDir, "inbox") }

// writeLease atomically publishes a lease into a worker's inbox.
func writeLease(workerDir string, lf leaseFile) (string, error) {
	data, err := json.Marshal(lf)
	if err != nil {
		return "", fmt.Errorf("fleet: marshal lease for %s: %w", lf.Key, err)
	}
	path := filepath.Join(inboxDir(workerDir), fmt.Sprintf("%d%s", lf.Epoch, leaseExt))
	if err := runstate.WriteFileAtomic(path, data); err != nil {
		return "", err
	}
	return path, nil
}

// readLease parses a lease file, verifying it names a unit.
func readLease(path string) (leaseFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseFile{}, fmt.Errorf("fleet: read lease: %w", err)
	}
	var lf leaseFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return leaseFile{}, fmt.Errorf("fleet: parse lease %s: %w", filepath.Base(path), err)
	}
	if lf.Key == "" || lf.Unit.Spec == nil {
		return leaseFile{}, fmt.Errorf("fleet: lease %s is incomplete", filepath.Base(path))
	}
	return lf, nil
}

// scanInbox lists a worker's pending lease files in epoch order and
// reports whether the stop marker is present. Damaged lease files are
// quarantined in place: renamed to <name>.corrupt so they are never
// re-read, leaving the coordinator to notice the nack (the rename keeps
// the epoch in the filename) and re-dispatch the unit under a fresh
// epoch. Torn leases therefore delay a unit, never lose it.
func scanInbox(workerDir string) (leases []string, stop bool, err error) {
	dir := inboxDir(workerDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: scan inbox: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == stopMarker:
			stop = true
		case strings.HasSuffix(name, leaseExt):
			path := filepath.Join(dir, name)
			if _, lerr := readLease(path); lerr != nil {
				// Nack the damaged file; ignore rename failure — the
				// next scan retries it.
				_ = os.Rename(path, path+corruptExt)
				continue
			}
			names = append(names, name)
		}
	}
	// Epoch order: filenames are "<epoch>.lease" with monotonic epochs;
	// numeric compare by length-then-lexicographic avoids parsing.
	sort.Slice(names, func(i, j int) bool {
		if len(names[i]) != len(names[j]) {
			return len(names[i]) < len(names[j])
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		leases = append(leases, filepath.Join(dir, n))
	}
	return leases, stop, nil
}

// leaseNacked reports whether the lease published at path was
// quarantined by the worker as corrupt.
func leaseNacked(path string) bool {
	_, err := os.Stat(path + corruptExt)
	return err == nil
}
