package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gtpin/internal/faults"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// workerConfig is what the coordinator writes into
// <workerDir>/config.json before spawning: everything the worker loop
// needs that is not per-lease. Durations travel as milliseconds to keep
// the file human-readable.
type workerConfig struct {
	ID             string `json:"id"`
	Ordinal        int    `json:"ordinal"`
	HeartbeatMs    int64  `json:"heartbeat_ms"`
	PollMs         int64  `json:"poll_ms"`
	UnitTimeoutMs  int64  `json:"unit_timeout_ms"`
	SaveRecordings bool   `json:"save_recordings"`
}

// heartbeat is the liveness file a worker rewrites on every tick. The
// coordinator watches for the bytes changing, not the mtime — content
// change is immune to filesystems with coarse timestamps.
type heartbeat struct {
	Pid int    `json:"pid"`
	Seq uint64 `json:"seq"`
}

// RunWorker is the worker process's whole life: claim the private state
// directory (flock — a second worker pointed at the same directory dies
// with ErrStateDirLocked instead of corrupting it), heartbeat, and
// execute leases from the inbox until the stop marker appears. Results
// are journaled under each lease's fencing epoch and made durable
// (artifact first, completion record second) before the lease file is
// removed, so the coordinator can harvest everything this process
// finished no matter how it later dies.
func RunWorker(dir string) error {
	cfgData, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return fmt.Errorf("fleet: worker config: %w", err)
	}
	var cfg workerConfig
	if err := json.Unmarshal(cfgData, &cfg); err != nil {
		return fmt.Errorf("fleet: parse worker config: %w", err)
	}
	chaos, err := chaosFromEnv()
	if err != nil {
		return err
	}
	sd, err := runstate.OpenDir(filepath.Join(dir, "state"))
	if err != nil {
		return err
	}
	defer sd.Close()

	hb, err := startHeartbeat(dir, time.Duration(cfg.HeartbeatMs)*time.Millisecond)
	if err != nil {
		return err
	}
	defer hb.halt()

	w := &worker{cfg: cfg, dir: dir, state: sd, chaos: chaos, hb: hb, done: map[string]bool{}}
	poll := time.Duration(cfg.PollMs) * time.Millisecond
	for {
		leases, stop, err := scanInbox(dir)
		if err != nil {
			return err
		}
		pending := 0
		for _, path := range leases {
			if w.done[filepath.Base(path)] {
				continue
			}
			pending++
			if err := w.processLease(path); err != nil {
				return err
			}
		}
		if stop && pending == 0 {
			return nil
		}
		time.Sleep(poll)
	}
}

// worker is the per-process execution state of RunWorker.
type worker struct {
	cfg       workerConfig
	dir       string
	state     *runstate.Dir
	chaos     Schedule
	hb        *heartbeater
	done      map[string]bool
	processed int // leases fully handled, the chaos counters' clock
}

// processLease executes one lease end to end. Returned errors are
// infrastructure failures (journal I/O); unit failures are journaled
// as typed records and are not errors here.
func (w *worker) processLease(path string) error {
	lf, err := readLease(path)
	if err != nil {
		// Damaged between scan and read (or raced); nack and move on.
		_ = os.Rename(path, path+corruptExt)
		return nil
	}

	// Chaos faults fire after the start record, modeling a process that
	// died or froze mid-unit: the coordinator sees a started-but-never-
	// finished epoch and must recover the unit.
	poisoned := false
	for _, k := range w.chaos.Poison {
		if k == lf.Key {
			poisoned = true
		}
	}
	kill, killArmed := w.chaos.KillAfter[w.cfg.Ordinal]
	hang, hangArmed := w.chaos.HangAfter[w.cfg.Ordinal]
	if poisoned || (killArmed && w.processed == kill) {
		if err := w.state.Journal.Started(lf.Key, lf.Epoch); err != nil {
			return err
		}
		killSelf()
	}
	if hangArmed && w.processed == hang {
		if err := w.state.Journal.Started(lf.Key, lf.Epoch); err != nil {
			return err
		}
		w.hb.halt()
		select {} // frozen: flock held, no heartbeat, no progress
	}

	if err := w.state.Journal.Started(lf.Key, lf.Epoch); err != nil {
		return err
	}
	if err := w.execute(lf); err != nil {
		return err
	}
	w.done[filepath.Base(path)] = true
	w.processed++
	return os.Remove(path)
}

// execute runs the leased unit through a single-unit supervised pool —
// inheriting panic isolation, the restart budget, and the per-attempt
// timeout — then commits or journals its terminal state under the
// lease's epoch.
func (w *worker) execute(lf leaseFile) error {
	journalFailed := func(attempts int, uerr error) error {
		return w.state.Journal.Failed(lf.Key, attempts, uerr.Error(), faults.Label(uerr), lf.Epoch)
	}

	if got := lf.Unit.Key(); got != lf.Key {
		return journalFailed(0, fmt.Errorf("fleet: lease key %s rebuilt as %s", lf.Key, got))
	}

	outs, err := workloads.RunPool(context.Background(), []workloads.Unit{lf.Unit}, workloads.PoolOptions{
		Workers:     1,
		UnitTimeout: time.Duration(w.cfg.UnitTimeoutMs) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	o := outs[0]
	if o.Err != nil {
		return journalFailed(o.Attempts, o.Err)
	}

	var rec func(io.Writer) error
	if w.cfg.SaveRecordings {
		rec = o.Result.Recording.Save
		o.Artifact.HasRecording = true
	}
	data, err := o.Artifact.Encode()
	if err != nil {
		return journalFailed(o.Attempts, err)
	}
	return w.state.Commit(lf.Key, data, rec, o.Attempts, lf.Epoch)
}

// heartbeater rewrites the worker's liveness file on a fixed cadence.
type heartbeater struct {
	stop chan struct{}
	done chan struct{}
}

// startHeartbeat writes the first beat synchronously (so the
// coordinator sees readiness as soon as spawn succeeds) and then beats
// in the background until halted.
func startHeartbeat(dir string, interval time.Duration) (*heartbeater, error) {
	path := filepath.Join(dir, "heartbeat.json")
	var seq uint64
	beat := func() error {
		seq++
		data, err := json.Marshal(heartbeat{Pid: os.Getpid(), Seq: seq})
		if err != nil {
			return err
		}
		return runstate.WriteFileAtomic(path, data)
	}
	if err := beat(); err != nil {
		return nil, fmt.Errorf("fleet: first heartbeat: %w", err)
	}
	hb := &heartbeater{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hb.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hb.stop:
				return
			case <-t.C:
				_ = beat() // a missed beat is what the TTL is for
			}
		}
	}()
	return hb, nil
}

// halt stops the beat and waits for the last write to finish. Safe to
// call twice only from one goroutine (the worker loop).
func (h *heartbeater) halt() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}
