package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gtpin/internal/faults"
	"gtpin/internal/obs"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// unitState is the coordinator's ledger entry for one work unit.
type unitState struct {
	idx        int
	key        string
	settled    bool
	leasedTo   *workerState // nil when unleased
	epoch      uint64       // epoch of the current lease, valid when leasedTo != nil
	expiries   int          // leases this unit lost to dead/expired workers
	redispatch bool         // next grant is a retry (expiry or nacked lease)
}

// leaseGrant is the coordinator's side of an outstanding lease.
type leaseGrant struct {
	unit    *unitState
	epoch   uint64
	path    string
	granted time.Time
}

// workerState is the coordinator's ledger entry for one worker process.
type workerState struct {
	id      string
	ordinal int
	dir     string
	proc    Process
	spawned time.Time
	ready   bool // first heartbeat seen
	hbRaw   []byte
	hbSeen  time.Time // local clock when hbRaw last changed
	lastSeq uint64    // journal records consumed
	lease   *leaseGrant
	dead    bool
}

func (w *workerState) stateDir() string { return filepath.Join(w.dir, "state") }

// coordinator drives one fleet run. Every field is owned by the single
// Run goroutine; workers communicate exclusively through the
// filesystem (leases in, heartbeats and journals out), which is what
// makes a worker's death at any instant representable: whatever it
// made durable is harvested, everything else expires.
type coordinator struct {
	pool     workloads.PoolOptions
	opts     Options
	units    []*unitState
	byKey    map[string]*unitState
	outcomes []workloads.Outcome
	dir      string
	workers  []*workerState
	epoch    uint64 // fencing-epoch source, globally monotonic
	spawns   int    // total processes started; the ordinal source
	settledN int
}

func (c *coordinator) run(ctx context.Context) ([]workloads.Outcome, error) {
	dir := c.opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "gtpin-fleet-")
		if err != nil {
			return c.outcomes, fmt.Errorf("fleet: scratch dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return c.outcomes, fmt.Errorf("fleet: fleet dir: %w", err)
	}
	c.dir = dir
	if err := c.writeManifest(); err != nil {
		return c.outcomes, err
	}

	if c.pool.Resume {
		c.adopt()
	}
	if c.settledN == len(c.units) {
		return c.outcomes, nil
	}

	defer c.killAll()
	if err := c.ensureWorkers(); err != nil {
		return c.outcomes, err
	}

	tick := time.NewTicker(c.opts.PollInterval)
	defer tick.Stop()
	for c.settledN < len(c.units) {
		select {
		case <-ctx.Done():
			return c.outcomes, ctx.Err()
		case <-tick.C:
		}
		if err := c.pump(); err != nil {
			return c.outcomes, err
		}
	}
	c.stopWorkers()
	return c.outcomes, nil
}

// pump is one supervision round: harvest results, detect failures,
// quarantine poison, keep the fleet staffed, hand out work.
func (c *coordinator) pump() error {
	now := time.Now()
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		// A dead process first gets a final harvest — results that
		// became durable before the crash are kept, only the in-flight
		// lease (if any) expires.
		if exited(w.proc) {
			if err := c.harvest(w); err != nil {
				return err
			}
			c.loseWorker(w, "process exited")
			continue
		}
		if err := c.harvest(w); err != nil {
			return err
		}
		if err := c.checkHeartbeat(w, now); err != nil {
			return err
		}
		if w.dead {
			continue
		}
		if err := c.checkLease(w, now); err != nil {
			return err
		}
	}
	if err := c.quarantine(); err != nil {
		return err
	}
	if err := c.ensureWorkers(); err != nil {
		return err
	}
	return c.dispatch()
}

// checkHeartbeat declares a worker lost when its heartbeat file stops
// changing: HeartbeatTTL once ready, startupGrace before the first
// beat. Content change, not mtime, so coarse filesystem timestamps
// cannot fake liveness.
func (c *coordinator) checkHeartbeat(w *workerState, now time.Time) error {
	if data, err := os.ReadFile(filepath.Join(w.dir, "heartbeat.json")); err == nil {
		if !bytes.Equal(data, w.hbRaw) {
			w.hbRaw = append(w.hbRaw[:0], data...)
			w.hbSeen = now
			w.ready = true
		}
	}
	ttl := c.opts.HeartbeatTTL
	ref := w.hbSeen
	if !w.ready {
		ttl = startupGrace
		ref = w.spawned
	}
	if now.Sub(ref) <= ttl {
		return nil
	}
	return c.expireWorker(w, "heartbeat stale")
}

// checkLease handles the two recoverable lease states on a live,
// heartbeating worker: a nacked (corrupt) lease file is re-dispatched
// immediately, and a lease older than leaseTTL means the unit has the
// worker wedged in a way the in-process supervisor couldn't catch — the
// worker is expendable, the unit is not.
func (c *coordinator) checkLease(w *workerState, now time.Time) error {
	if w.lease == nil {
		return nil
	}
	if leaseNacked(w.lease.path) {
		u := w.lease.unit
		c.opts.Logf("fleet: worker %s nacked corrupt lease for %s; re-dispatching", w.id, u.key)
		u.leasedTo = nil
		u.redispatch = true
		w.lease = nil
		return nil
	}
	if now.Sub(w.lease.granted) <= leaseTTL {
		return nil
	}
	return c.expireWorker(w, fmt.Sprintf("lease for %s exceeded TTL", w.lease.unit.key))
}

// expireWorker kills a worker the supervision loop gave up on, then
// harvests one last time: anything it journaled durably before the
// kill is still a valid result under its lease epoch.
func (c *coordinator) expireWorker(w *workerState, reason string) error {
	_ = w.proc.Kill()
	if err := c.harvest(w); err != nil {
		return err
	}
	c.loseWorker(w, reason)
	return nil
}

// loseWorker retires a dead worker and expires its outstanding lease,
// feeding the unit's poison counter.
func (c *coordinator) loseWorker(w *workerState, reason string) {
	w.dead = true
	c.opts.Stats.WorkersLost++
	mWorkersLost.Inc()
	mWorkersLive.Dec()
	c.opts.Logf("fleet: worker %s lost: %s", w.id, reason)
	if t := obs.ActiveTracer(); t != nil {
		t.InstantWall("fleet", "worker lost", "fleet:"+w.id, obs.A("reason", reason))
	}
	if w.lease == nil {
		return
	}
	u := w.lease.unit
	w.lease = nil
	if u.settled {
		return
	}
	u.leasedTo = nil
	u.expiries++
	u.redispatch = true
	c.opts.Stats.LeasesExpired++
	mLeasesExpired.Inc()
	c.opts.Logf("fleet: lease for %s expired with worker %s (%d of %d before quarantine)",
		u.key, w.id, u.expiries, c.opts.PoisonThreshold)
}

// harvest consumes a worker's journal records past the last consumed
// sequence number. The fencing epoch gates every terminal record: only
// a result journaled under the exact epoch of the lease this worker
// currently holds is accepted; everything else — a unit re-dispatched
// elsewhere, a worker declared lost that wrote before the kill landed —
// is counted stale and dropped.
func (c *coordinator) harvest(w *workerState) error {
	rec, err := runstate.Recover(filepath.Join(w.stateDir(), "journal.jsonl"))
	if err != nil {
		return err
	}
	for _, r := range rec.Records {
		if r.Seq <= w.lastSeq {
			continue
		}
		w.lastSeq = r.Seq
		if r.Status == runstate.StatusStarted {
			continue
		}
		u := c.byKey[r.Unit]
		if u == nil || u.settled || u.leasedTo != w || u.epoch != r.Epoch {
			c.opts.Stats.StaleResults++
			mStaleResults.Inc()
			c.opts.Logf("fleet: refused stale %s for %s from worker %s (epoch %d): %v",
				r.Status, r.Unit, w.id, r.Epoch, faults.ErrStaleWorker)
			if t := obs.ActiveTracer(); t != nil {
				t.InstantWall("fleet", "stale result refused", "fleet:"+w.id,
					obs.A("unit", r.Unit), obs.A("epoch", r.Epoch))
			}
			continue
		}
		switch r.Status {
		case runstate.StatusCompleted:
			if err := c.settleCompleted(w, u, r); err != nil {
				return err
			}
		case runstate.StatusFailed:
			if err := c.settleWorkerFailure(w, u, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// settleCompleted merges one harvested completion: digest-verify the
// artifact in the worker's state dir, commit it (and its recording) to
// the main state dir, settle the outcome. An artifact that fails
// verification is treated like an expired lease — re-executed, never
// trusted.
func (c *coordinator) settleCompleted(w *workerState, u *unitState, r runstate.Record) error {
	granted := w.lease.granted
	data, err := runstate.ReadVerifiedArtifact(w.stateDir(), r.Unit, r.Digest)
	var art *workloads.Artifact
	if err == nil {
		art, err = workloads.DecodeArtifact(data)
	}
	var recording []byte
	if err == nil && art.HasRecording && c.pool.State != nil {
		recording, err = os.ReadFile(runstate.UnitFilePath(w.stateDir(), r.Unit, ".rec"))
	}
	if err != nil {
		c.opts.Logf("fleet: unharvestable result for %s from worker %s (%v); re-dispatching", u.key, w.id, err)
		w.lease = nil
		u.leasedTo = nil
		u.expiries++
		u.redispatch = true
		c.opts.Stats.LeasesExpired++
		mLeasesExpired.Inc()
		return nil
	}

	if c.pool.State != nil {
		var rec func(io.Writer) error
		if recording != nil {
			rec = func(dst io.Writer) error {
				_, err := dst.Write(recording)
				return err
			}
		}
		if err := c.pool.State.Commit(r.Unit, data, rec, 0); err != nil {
			return err
		}
	}

	o := &c.outcomes[u.idx]
	o.Artifact = art
	o.WallNs = time.Since(granted).Nanoseconds()
	u.settled = true
	c.settledN++
	u.leasedTo = nil
	w.lease = nil
	if t := obs.ActiveTracer(); t != nil {
		t.SpanWall("fleet", u.key, "fleet:"+w.id, granted, obs.A("epoch", r.Epoch))
	}
	if c.pool.OnOutcome != nil {
		c.pool.OnOutcome(*o)
	}
	return nil
}

// settleWorkerFailure settles a typed failure a worker journaled. The
// error is rebuilt around a sentinel carrying the journaled class name,
// so failure tables classify it exactly as a single-process run would.
func (c *coordinator) settleWorkerFailure(w *workerState, u *unitState, r runstate.Record) error {
	sent := faults.NewSentinel(r.Class, faults.Permanent)
	err := fmt.Errorf("fleet: unit %s on worker %s: %s: %w", r.Unit, w.id, r.Error, sent)
	w.lease = nil
	u.leasedTo = nil
	return c.settleFailure(u, err, r.Error, r.Class)
}

// settleFailure records a terminal failure outcome, journaling it into
// the main state dir with the same record shape a single-process pool
// writes.
func (c *coordinator) settleFailure(u *unitState, oerr error, errText, class string) error {
	if c.pool.State != nil {
		if err := c.pool.State.Journal.Failed(u.key, errText, class, 0); err != nil {
			return err
		}
	}
	o := &c.outcomes[u.idx]
	o.Err = oerr
	u.settled = true
	c.settledN++
	if c.pool.OnOutcome != nil {
		c.pool.OnOutcome(*o)
	}
	return nil
}

// quarantine settles units that have burned their lease budget as
// typed poison faults: the unit is the common factor across the dead
// workers, and re-dispatching it again only destroys more fleet.
func (c *coordinator) quarantine() error {
	for _, u := range c.units {
		if u.settled || u.leasedTo != nil || u.expiries < c.opts.PoisonThreshold {
			continue
		}
		err := fmt.Errorf("fleet: unit %s: %w: lost %d consecutive leases (threshold %d)",
			u.key, faults.ErrPoisonUnit, u.expiries, c.opts.PoisonThreshold)
		c.opts.Stats.Quarantined++
		mQuarantined.Inc()
		c.opts.Logf("fleet: quarantined %s after %d lost leases", u.key, u.expiries)
		if t := obs.ActiveTracer(); t != nil {
			t.InstantWall("fleet", "unit quarantined", "fleet:coordinator", obs.A("unit", u.key))
		}
		if serr := c.settleFailure(u, err, err.Error(), faults.Kind(faults.ErrPoisonUnit)); serr != nil {
			return serr
		}
	}
	return nil
}

// ensureWorkers keeps the fleet staffed at min(Workers, unsettled
// units) live processes, respawning within the budget. An empty fleet
// with an exhausted budget and work remaining is an infrastructure
// failure: returning it beats polling forever.
func (c *coordinator) ensureWorkers() error {
	live := 0
	for _, w := range c.workers {
		if !w.dead {
			live++
		}
	}
	remaining := len(c.units) - c.settledN
	want := c.opts.Workers
	if remaining < want {
		want = remaining
	}
	for live < want {
		if c.spawns >= c.opts.Workers+c.opts.MaxRespawns {
			if live == 0 {
				return fmt.Errorf("fleet: spawn budget exhausted after %d workers with %d unit(s) unsettled",
					c.spawns, remaining)
			}
			return nil
		}
		if err := c.spawnWorker(); err != nil {
			return err
		}
		live++
	}
	return nil
}

// spawnWorker prepares a fresh worker directory (config, inbox) and
// starts the process. Worker directories are never reused: a respawn
// gets a new ordinal, a new flock, and an empty journal, so nothing a
// dead predecessor wrote can be misattributed.
func (c *coordinator) spawnWorker() error {
	ord := c.spawns
	c.spawns++
	id := fmt.Sprintf("w%03d", ord)
	wdir := filepath.Join(c.dir, "workers", id)
	if err := os.MkdirAll(inboxDir(wdir), 0o755); err != nil {
		return fmt.Errorf("fleet: worker dir: %w", err)
	}
	hbInterval := c.opts.HeartbeatTTL / 4
	if hbInterval < time.Millisecond {
		hbInterval = time.Millisecond
	}
	cfg := workerConfig{
		ID:             id,
		Ordinal:        ord,
		HeartbeatMs:    hbInterval.Milliseconds(),
		PollMs:         c.opts.PollInterval.Milliseconds(),
		UnitTimeoutMs:  c.pool.UnitTimeout.Milliseconds(),
		SaveRecordings: c.pool.SaveRecordings,
	}
	if cfg.PollMs < 1 {
		cfg.PollMs = 1
	}
	cfgData, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: marshal worker config: %w", err)
	}
	if err := runstate.WriteFileAtomic(filepath.Join(wdir, "config.json"), cfgData); err != nil {
		return err
	}
	proc, err := c.opts.Spawn(wdir)
	if err != nil {
		return fmt.Errorf("fleet: spawn %s: %w", id, err)
	}
	c.workers = append(c.workers, &workerState{
		id: id, ordinal: ord, dir: wdir, proc: proc, spawned: time.Now(),
	})
	c.opts.Stats.WorkersSpawned++
	mWorkersSpawned.Inc()
	mWorkersLive.Inc()
	c.opts.Logf("fleet: spawned worker %s (pid %d)", id, proc.Pid())
	return nil
}

// dispatch hands every idle ready worker the lowest-index unleased
// unit under a fresh fencing epoch. One outstanding lease per worker
// keeps the fleet self-balancing: fast workers come back for more,
// slow ones hold exactly one unit hostage.
func (c *coordinator) dispatch() error {
	next := 0
	for _, w := range c.workers {
		if w.dead || !w.ready || w.lease != nil {
			continue
		}
		u := c.nextUnit(&next)
		if u == nil {
			return nil
		}
		c.epoch++
		path, err := writeLease(w.dir, leaseFile{
			UnitIdx: u.idx, Key: u.key, Epoch: c.epoch, Unit: c.outcomes[u.idx].Unit,
		})
		if err != nil {
			return err
		}
		u.leasedTo = w
		u.epoch = c.epoch
		w.lease = &leaseGrant{unit: u, epoch: c.epoch, path: path, granted: time.Now()}
		c.opts.Stats.LeasesGranted++
		mLeasesGranted.Inc()
		if u.redispatch {
			c.opts.Stats.Redispatches++
			mRedispatches.Inc()
			c.opts.Logf("fleet: re-dispatched %s to worker %s (epoch %d)", u.key, w.id, c.epoch)
		}
	}
	return nil
}

// nextUnit scans forward for the next dispatchable unit.
func (c *coordinator) nextUnit(next *int) *unitState {
	for ; *next < len(c.units); *next++ {
		u := c.units[*next]
		if !u.settled && u.leasedTo == nil && u.expiries < c.opts.PoisonThreshold {
			*next++
			return u
		}
	}
	return nil
}

// adopt satisfies units the main state dir's journal already records as
// completed, by the same rule as a resuming single-process pool
// (workloads.Adopt).
func (c *coordinator) adopt() {
	completed := c.pool.State.Recovered.Completed()
	for _, u := range c.units {
		art, ok := workloads.Adopt(c.pool.State, completed, u.key)
		if !ok {
			continue
		}
		o := &c.outcomes[u.idx]
		o.Artifact = art
		o.Resumed = true
		u.settled = true
		c.settledN++
		c.opts.Stats.Adopted++
		if c.pool.OnOutcome != nil {
			c.pool.OnOutcome(*o)
		}
	}
}

// stopWorkers asks live workers to exit (STOP marker) and gives them a
// short grace before the deferred killAll reaps stragglers.
func (c *coordinator) stopWorkers() {
	deadline := time.Now().Add(2 * time.Second)
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		_ = runstate.WriteFileAtomic(filepath.Join(inboxDir(w.dir), stopMarker), []byte("stop\n"))
	}
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		select {
		case <-w.proc.Exited():
		case <-time.After(time.Until(deadline)):
		}
	}
}

// killAll force-terminates whatever is still running — the last line of
// defense on every exit path, error or clean.
func (c *coordinator) killAll() {
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		w.dead = true
		mWorkersLive.Dec()
		_ = w.proc.Kill()
	}
}

// writeManifest records the sweep's unit table for post-mortems: which
// index maps to which key, worker dirs aside.
func (c *coordinator) writeManifest() error {
	type entry struct {
		Idx int    `json:"idx"`
		Key string `json:"key"`
	}
	entries := make([]entry, len(c.units))
	for i, u := range c.units {
		entries[i] = entry{Idx: u.idx, Key: u.key}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: marshal manifest: %w", err)
	}
	return runstate.WriteFileAtomic(filepath.Join(c.dir, "units.json"), data)
}
