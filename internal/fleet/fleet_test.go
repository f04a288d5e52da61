package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// TestMain diverts re-executions of this test binary into the worker
// loop — the same hook every fleet-capable command installs — so the
// chaos e2e can spawn real worker processes.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// fleetUnits builds a tiny-scale sweep over the structurally diverse
// chaos roster, `trials` trial seeds per app.
func fleetUnits(t testing.TB, trials int) []workloads.Unit {
	t.Helper()
	apps := []string{"cb-throughput-juliaset", "cb-gaussian-buffer", "sandra-proc-gpu"}
	var units []workloads.Unit
	for trial := 1; trial <= trials; trial++ {
		for _, name := range apps {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, workloads.Unit{
				Spec: spec, Scale: workloads.ScaleTiny,
				Cfg: device.IvyBridgeHD4000(), TrialSeed: int64(trial),
			})
		}
	}
	return units
}

// TestLeaseRoundTrip: a lease carries a self-contained unit that a
// worker decodes to the roster's Spec and the same journal key. Every
// field of Unit and FaultOptions has a mutation below, and each one
// yields a key of its own, so a field that changes results but misses
// the key or the wire form fails here. The field counts make a new
// field fail the test until it is listed.
func TestLeaseRoundTrip(t *testing.T) {
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf(workloads.Unit{}):         7,
		reflect.TypeOf(workloads.FaultOptions{}): 3,
		reflect.TypeOf(faults.Rates{}):           4,
	} {
		if n := typ.NumField(); n != want {
			t.Fatalf("%s has %d fields, want %d: add a mutation for the new field below", typ, n, want)
		}
	}

	gen, genx := isa.DialectGEN, isa.DialectGENX
	base := fleetUnits(t, 1)[0]
	other, err := workloads.ByName("sandra-proc-gpu")
	if err != nil {
		t.Fatal(err)
	}
	with := func(mutate func(*workloads.Unit)) workloads.Unit {
		u := base
		mutate(&u)
		return u
	}
	withFaults := func(mutate func(*workloads.FaultOptions)) workloads.Unit {
		fo := workloads.FaultOptions{Rates: faults.Uniform(0.05), Seed: 11, Watchdog: 1 << 20}
		mutate(&fo)
		return with(func(u *workloads.Unit) { u.Faults = &fo })
	}
	chaos := withFaults(func(*workloads.FaultOptions) {})
	chaosISA := chaos
	chaosISA.Dialect, chaosISA.Translate = genx, &gen
	cases := []struct {
		name string
		unit workloads.Unit
	}{
		{"base", base},
		{"app", with(func(u *workloads.Unit) { u.Spec = other })},
		{"scale", with(func(u *workloads.Unit) { u.Scale = workloads.ScaleSmall })},
		{"config EUs", with(func(u *workloads.Unit) { u.Cfg = u.Cfg.WithEUs(8) })},
		{"config frequency", with(func(u *workloads.Unit) { u.Cfg = u.Cfg.WithFrequency(650) })},
		{"trial seed", with(func(u *workloads.Unit) { u.TrialSeed = 2 })},
		{"faults", chaos},
		{"hang rate", withFaults(func(fo *workloads.FaultOptions) { fo.Rates.Hang = 0.5 })},
		{"send rate", withFaults(func(fo *workloads.FaultOptions) { fo.Rates.Send = 0.5 })},
		{"jit rate", withFaults(func(fo *workloads.FaultOptions) { fo.Rates.JIT = 0.5 })},
		{"corrupt rate", withFaults(func(fo *workloads.FaultOptions) { fo.Rates.Corrupt = 0.5 })},
		{"fault seed", withFaults(func(fo *workloads.FaultOptions) { fo.Seed = 12 })},
		{"watchdog", withFaults(func(fo *workloads.FaultOptions) { fo.Watchdog = 1 << 21 })},
		{"dialect", with(func(u *workloads.Unit) { u.Dialect = genx })},
		{"translate", with(func(u *workloads.Unit) { u.Translate = &genx })},
		{"dialect, translate and faults", chaosISA},
	}

	seen := make(map[string]string, len(cases))
	for _, c := range cases {
		u := c.unit
		if prev, dup := seen[u.Key()]; dup {
			t.Fatalf("%s and %s share key %s", prev, c.name, u.Key())
		}
		seen[u.Key()] = c.name

		wdir := t.TempDir()
		if err := os.MkdirAll(inboxDir(wdir), 0o755); err != nil {
			t.Fatal(err)
		}
		want := leaseFile{UnitIdx: 3, Key: u.Key(), Epoch: 17, Unit: u}
		path, err := writeLease(wdir, want)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != "17.lease" {
			t.Fatalf("lease filename %s, want 17.lease (epoch-named)", filepath.Base(path))
		}
		got, err := readLease(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lease did not round-trip:\n got %+v\nwant %+v", c.name, got, want)
		}
		if got.Unit.Spec != u.Spec {
			t.Fatalf("%s: decoded spec %p is not the roster's %p", c.name, got.Unit.Spec, u.Spec)
		}
		if got.Unit.Key() != u.Key() {
			t.Fatalf("%s: decoded key %s != %s", c.name, got.Unit.Key(), u.Key())
		}
	}
}

// TestScanInboxNacksTornLease: a lease file damaged after publication is
// quarantined (renamed .corrupt) so the worker never executes garbage,
// and the coordinator can see the nack at the original path.
func TestScanInboxNacksTornLease(t *testing.T) {
	wdir := t.TempDir()
	if err := os.MkdirAll(inboxDir(wdir), 0o755); err != nil {
		t.Fatal(err)
	}
	u := fleetUnits(t, 1)[0]
	good, err := writeLease(wdir, leaseFile{UnitIdx: 0, Key: u.Key(), Epoch: 1, Unit: u})
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(inboxDir(wdir), "2.lease")
	if err := os.WriteFile(torn, []byte(`{"unit_idx":0,"key":"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Well-formed JSON naming an app the roster lacks cannot be run.
	unknown := filepath.Join(inboxDir(wdir), "3.lease")
	if err := os.WriteFile(unknown, []byte(`{"unit_idx":0,"key":"x","epoch":3,"unit":{"app":"no-such-app"}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	leases, stop, err := scanInbox(wdir)
	if err != nil {
		t.Fatal(err)
	}
	if stop {
		t.Fatal("phantom stop marker")
	}
	if len(leases) != 1 || leases[0] != good {
		t.Fatalf("scanInbox = %v, want only %s", leases, good)
	}
	if !leaseNacked(torn) || !leaseNacked(unknown) {
		t.Fatal("torn or unknown-app lease was not nacked (no .corrupt twin)")
	}
	if leaseNacked(good) {
		t.Fatal("healthy lease reported nacked")
	}
}

// TestScanInboxEpochOrder: leases come back in numeric epoch order even
// when lexicographic order disagrees (9 vs 10).
func TestScanInboxEpochOrder(t *testing.T) {
	wdir := t.TempDir()
	if err := os.MkdirAll(inboxDir(wdir), 0o755); err != nil {
		t.Fatal(err)
	}
	u := fleetUnits(t, 1)[0]
	for _, ep := range []uint64{10, 2, 9} {
		if _, err := writeLease(wdir, leaseFile{Key: u.Key(), Epoch: ep, Unit: u}); err != nil {
			t.Fatal(err)
		}
	}
	leases, _, err := scanInbox(wdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range leases {
		names = append(names, filepath.Base(p))
	}
	want := []string{"2.lease", "9.lease", "10.lease"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("inbox order %v, want %v", names, want)
	}
}

// TestRandomScheduleDeterministic: the same seed yields the same plan,
// different seeds differ, and a >=3-worker fleet always gets the chaos
// floor the e2e asserts byte-identity under (2 kills + 1 hang).
func TestRandomScheduleDeterministic(t *testing.T) {
	a, b := RandomSchedule(42, 4), RandomSchedule(42, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if len(a.KillAfter) < 2 || len(a.HangAfter) < 1 {
		t.Fatalf("schedule %+v below the 2-kill 1-hang floor", a)
	}
	if a.Failures() != len(a.KillAfter)+len(a.HangAfter) {
		t.Fatalf("Failures() = %d, want %d", a.Failures(), len(a.KillAfter)+len(a.HangAfter))
	}
	if c := RandomSchedule(43, 4); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(EnvChaos, enc)
	back, err := chaosFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Fatalf("schedule did not survive the env round-trip:\n got %+v\nwant %+v", back, a)
	}
}

func TestChaosFromEnvRejectsGarbage(t *testing.T) {
	t.Setenv(EnvChaos, "{not json")
	if _, err := chaosFromEnv(); err == nil {
		t.Fatal("malformed chaos schedule accepted (would run a chaos suite vacuously clean)")
	}
}

func TestRunRejectsDuplicateUnits(t *testing.T) {
	u := fleetUnits(t, 1)[0]
	_, err := Run(context.Background(), []workloads.Unit{u, u}, workloads.PoolOptions{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "share key") {
		t.Fatalf("duplicate units accepted: %v", err)
	}
}

func TestRunResumeRequiresState(t *testing.T) {
	if _, err := Run(context.Background(), nil, workloads.PoolOptions{Resume: true}, Options{}); err == nil {
		t.Fatal("Resume without State accepted")
	}
}

// testCoordinator builds a coordinator with one unit leased to one fake
// worker — the fixture the harvest fencing tests poke directly, with no
// processes involved.
func testCoordinator(t *testing.T, key string, epoch uint64) (*coordinator, *unitState, *workerState) {
	t.Helper()
	opts := Options{}
	applyDefaults(&opts)
	opts.Stats = &Stats{}
	u := &unitState{idx: 0, key: key}
	w := &workerState{id: "w000", dir: t.TempDir()}
	u.leasedTo = w
	u.epoch = epoch
	w.lease = &leaseGrant{unit: u, epoch: epoch, granted: time.Now()}
	c := &coordinator{
		opts:     opts,
		units:    []*unitState{u},
		byKey:    map[string]*unitState{key: u},
		outcomes: make([]workloads.Outcome, 1),
	}
	return c, u, w
}

// journalInWorker writes records into a fake worker's private state dir
// the way a real worker would, then releases the flock so the
// coordinator-side Recover in harvest reads a settled journal.
func journalInWorker(t *testing.T, w *workerState, write func(*runstate.Dir) error) {
	t.Helper()
	sd, err := runstate.OpenDir(w.stateDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := write(sd); err != nil {
		sd.Close()
		t.Fatal(err)
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHarvestRefusesStaleEpoch: a completion journaled under an epoch
// that is not the unit's current lease is fenced off — counted stale,
// never merged — exactly the write a worker declared dead could land
// after its unit was re-dispatched.
func TestHarvestRefusesStaleEpoch(t *testing.T) {
	c, u, w := testCoordinator(t, "unitA", 8)
	journalInWorker(t, w, func(sd *runstate.Dir) error {
		return sd.Journal.Completed("unitA", "0123456789abcdef", 7) // stale epoch
	})
	if err := c.harvest(w); err != nil {
		t.Fatal(err)
	}
	if u.settled {
		t.Fatal("stale-epoch result settled the unit")
	}
	if c.opts.Stats.StaleResults != 1 {
		t.Fatalf("StaleResults = %d, want 1", c.opts.Stats.StaleResults)
	}
	if u.leasedTo != w {
		t.Fatal("lease disturbed by a refused record")
	}
}

// TestHarvestUnverifiableArtifactExpiresLease: a completion whose
// artifact fails digest verification is treated like an expired lease —
// the unit re-executes, the bytes are never trusted.
func TestHarvestUnverifiableArtifactExpiresLease(t *testing.T) {
	c, u, w := testCoordinator(t, "unitA", 8)
	journalInWorker(t, w, func(sd *runstate.Dir) error {
		// Correct epoch, but no artifact file backs the digest.
		return sd.Journal.Completed("unitA", "feedfacefeedface", 8)
	})
	if err := c.harvest(w); err != nil {
		t.Fatal(err)
	}
	if u.settled {
		t.Fatal("unverifiable artifact settled the unit")
	}
	if u.expiries != 1 || !u.redispatch || u.leasedTo != nil || w.lease != nil {
		t.Fatalf("lease not expired: expiries=%d redispatch=%v leasedTo=%v", u.expiries, u.redispatch, u.leasedTo)
	}
	if c.opts.Stats.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", c.opts.Stats.LeasesExpired)
	}
}

// TestHarvestAcceptsCurrentEpochFailure: a typed failure journaled under
// the live epoch settles the unit with the journaled class preserved.
func TestHarvestAcceptsCurrentEpochFailure(t *testing.T) {
	c, u, w := testCoordinator(t, "unitA", 8)
	journalInWorker(t, w, func(sd *runstate.Dir) error {
		return sd.Journal.Failed("unitA", "boom", "worker-panic", 8)
	})
	if err := c.harvest(w); err != nil {
		t.Fatal(err)
	}
	if !u.settled {
		t.Fatal("current-epoch failure did not settle the unit")
	}
	o := c.outcomes[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "boom") {
		t.Fatalf("outcome %+v lost the journaled failure detail", o)
	}
}

// TestHarvestReturnsStateIOError: a main state dir that cannot be
// written fails the harvest, and so Run, as it fails RunPool.
func TestHarvestReturnsStateIOError(t *testing.T) {
	c, _, w := testCoordinator(t, "unitA", 8)
	journalInWorker(t, w, func(sd *runstate.Dir) error {
		return sd.Journal.Failed("unitA", "boom", "worker-panic", 8)
	})
	state, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	if err := state.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	c.pool.State = state
	if err := c.harvest(w); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("harvest = %v, want the state journal's %v", err, os.ErrClosed)
	}
}

// TestCheckLeaseNackedRedispatch: a worker nacking a torn lease frees
// the unit for immediate re-dispatch — no TTL wait, no expiry charged
// against the unit's poison budget.
func TestCheckLeaseNackedRedispatch(t *testing.T) {
	c, u, w := testCoordinator(t, "unitA", 8)
	path := filepath.Join(t.TempDir(), "8.lease")
	if err := os.WriteFile(path+corruptExt, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	w.lease.path = path
	if err := c.checkLease(w, time.Now()); err != nil {
		t.Fatal(err)
	}
	if u.leasedTo != nil || w.lease != nil || !u.redispatch {
		t.Fatal("nacked lease was not freed for re-dispatch")
	}
	if u.expiries != 0 {
		t.Fatalf("nack charged %d expiries against the poison budget, want 0", u.expiries)
	}
}
