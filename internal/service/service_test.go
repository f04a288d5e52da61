package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtpin/internal/workloads"
)

// newTestServer builds and starts a server on a loopback port, closing
// it at cleanup. cfg.StateDir defaults to a temp dir and cfg.sleep to a
// no-op so retry passes don't slow tests down.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.sleep == nil {
		cfg.sleep = func(context.Context, time.Duration) error { return nil }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func baseURL(s *Server) string { return "http://" + s.Addr() }

func postJob(t *testing.T, s *Server, spec string, apiKey string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", baseURL(s)+"/api/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return v
}

func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not settle (state %s)", j.ID, j.State())
	}
	return j.State()
}

func mustJob(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	return j
}

// waitState polls until the job reaches want.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingRunner returns a runner that parks every call until release
// is closed (or the pool context dies), then reports success for every
// unit. It lets tests hold a job "running" deterministically.
func blockingRunner(release <-chan struct{}) runner {
	return func(ctx context.Context, units []workloads.Unit, opts workloads.PoolOptions) ([]workloads.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		outs := make([]workloads.Outcome, len(units))
		for i, u := range units {
			outs[i] = workloads.Outcome{Unit: u}
			if ctx.Err() != nil {
				outs[i].Err = ctx.Err()
				continue
			}
			outs[i].Artifact = &workloads.Artifact{App: u.Spec.Name}
			outs[i].Attempts = 1
			if opts.OnOutcome != nil {
				opts.OnOutcome(outs[i])
			}
		}
		return outs, ctx.Err()
	}
}

const tinySpec = `{"id":"t1","kind":"characterize","apps":["cb-gaussian-buffer"],"scale":"tiny"}`

// TestSubmitPollResultArtifacts drives the happy path end to end with
// the real pool: submit, settle, result, artifact inventory, idempotent
// resubmission.
func TestSubmitPollResultArtifacts(t *testing.T) {
	s := newTestServer(t, Config{})

	resp := postJob(t, s, tinySpec, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: got %s, want 201", resp.Status)
	}
	v := decodeView(t, resp)
	if v.ID != "t1" || v.State != StateQueued {
		t.Fatalf("submit view = %+v", v)
	}

	j := mustJob(t, s, "t1")
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job settled %s, want done", st)
	}
	view := j.View()
	if view.UnitsDone != 1 || view.UnitsTotal != 1 {
		t.Fatalf("progress = %+v", view.Progress)
	}

	// Result: canonical, one completed unit with a digest.
	var result resultFile
	resp2, err := http.Get(baseURL(s) + "/api/v1/jobs/t1/result")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %v %v", err, resp2.Status)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&result); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	resp2.Body.Close()
	if len(result.Units) != 1 || result.Units[0].Status != "completed" || result.Units[0].Digest == "" {
		t.Fatalf("result = %+v", result)
	}

	// Artifact inventory includes the result and the unit artifact.
	resp3, err := http.Get(baseURL(s) + "/api/v1/jobs/t1/artifacts")
	if err != nil {
		t.Fatalf("GET artifacts: %v", err)
	}
	var inv struct {
		Artifacts []string `json:"artifacts"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&inv); err != nil {
		t.Fatalf("decode artifacts: %v", err)
	}
	resp3.Body.Close()
	var unitName string
	for _, name := range inv.Artifacts {
		if strings.HasPrefix(name, "cb-gaussian-buffer") {
			unitName = name
		}
	}
	if unitName == "" || !contains(inv.Artifacts, "result.json") {
		t.Fatalf("artifact inventory = %v", inv.Artifacts)
	}
	resp4, err := http.Get(baseURL(s) + "/api/v1/jobs/t1/artifacts/" + unitName)
	if err != nil || resp4.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s: %v %v", unitName, err, resp4.Status)
	}
	resp4.Body.Close()

	// Traversal attempts are rejected outright.
	resp5, err := http.Get(baseURL(s) + "/api/v1/jobs/t1/artifacts/..%2Fjob.json")
	if err != nil {
		t.Fatalf("GET traversal: %v", err)
	}
	resp5.Body.Close()
	if resp5.StatusCode == http.StatusOK {
		t.Fatalf("traversal artifact fetch succeeded")
	}

	// Idempotent resubmission returns the existing job, not a new one.
	resp6 := postJob(t, s, tinySpec, "")
	if resp6.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: got %s, want 200", resp6.Status)
	}
	if v := decodeView(t, resp6); v.State != StateDone {
		t.Fatalf("resubmit view state = %s, want done", v.State)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestQueueFullSheds429 pins the backpressure contract: a full queue
// sheds with 429 + Retry-After and rolls the admission back so the same
// ID can be resubmitted once there is room.
func TestQueueFullSheds429(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{QueueCap: 1, JobWorkers: 1})
	s.runPool = blockingRunner(release)

	submit := func(id string) *http.Response {
		return postJob(t, s, fmt.Sprintf(`{"id":%q,"kind":"subsets","apps":["cb-gaussian-buffer"]}`, id), "")
	}

	r1 := submit("j1")
	r1.Body.Close()
	waitState(t, mustJob(t, s, "j1"), StateRunning) // worker claimed j1
	r2 := submit("j2")                              // fills the queue
	r2.Body.Close()
	if r1.StatusCode != http.StatusCreated || r2.StatusCode != http.StatusCreated {
		t.Fatalf("admissions: %s, %s", r1.Status, r2.Status)
	}

	r3 := submit("j3")
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: got %s, want 429", r3.Status)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	r3.Body.Close()
	if _, ok := s.job("j3"); ok {
		t.Fatalf("shed job left in registry")
	}
	if _, err := os.Stat(s.jobDir("j3")); !os.IsNotExist(err) {
		t.Fatalf("shed job left its directory behind: %v", err)
	}

	close(release)
	waitTerminal(t, mustJob(t, s, "j1"))
	waitTerminal(t, mustJob(t, s, "j2"))

	// Room again: the same ID now admits cleanly.
	r4 := submit("j3")
	if r4.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit after shed: got %s, want 201", r4.Status)
	}
	r4.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "j3")); st != StateDone {
		t.Fatalf("j3 settled %s", st)
	}
}

// TestTenantPolicies pins closed admission, per-tenant quotas, and the
// policy fold into the persisted spec.
func TestTenantPolicies(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{
		JobWorkers: 1,
		Tenants: NewPolicies(map[string]Tenant{
			"key-alice": {Name: "alice", Policy: Policy{FaultRate: 0.5, FaultSeed: 9, MaxQueued: 1}},
		}),
	})
	s.runPool = blockingRunner(release)

	// No key, or an unknown key: 401.
	r := postJob(t, s, `{"id":"a1","kind":"characterize","apps":["cb-gaussian-buffer"]}`, "")
	r.Body.Close()
	if r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous submit: got %s, want 401", r.Status)
	}
	r = postJob(t, s, `{"id":"a1","kind":"characterize","apps":["cb-gaussian-buffer"]}`, "key-bob")
	r.Body.Close()
	if r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: got %s, want 401", r.Status)
	}

	// Admitted, and the tenant's fault policy overrides the spec's.
	r = postJob(t, s, `{"id":"a1","kind":"characterize","apps":["cb-gaussian-buffer"],"fault_rate":0.01}`, "key-alice")
	r.Body.Close()
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("alice submit: got %s, want 201", r.Status)
	}
	sp, err := readSpec(s.jobDir("a1"))
	if err != nil {
		t.Fatalf("readSpec: %v", err)
	}
	if sp.FaultRate != 0.5 || sp.FaultSeed != 9 {
		t.Fatalf("policy not folded into persisted spec: %+v", sp)
	}

	// Quota: one non-terminal job at a time.
	r = postJob(t, s, `{"id":"a2","kind":"characterize","apps":["cb-gaussian-buffer"]}`, "key-alice")
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: got %s, want 429", r.Status)
	}

	close(release)
	waitTerminal(t, mustJob(t, s, "a1"))
	r = postJob(t, s, `{"id":"a2","kind":"characterize","apps":["cb-gaussian-buffer"]}`, "key-alice")
	r.Body.Close()
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("post-quota submit: got %s, want 201", r.Status)
	}
}

// TestDrainOrderingAndRequeue pins the SIGTERM contract: during the
// drain window /readyz serves 503 while /healthz still answers, a job
// the drain timeout abandons stays resumable, and a queued job survives
// on disk — both re-enter the queue on the next start.
func TestDrainOrderingAndRequeue(t *testing.T) {
	release := make(chan struct{}) // never closed: j1 blocks until cancelled
	dir := t.TempDir()
	var readyzDuringDrain, healthzDuringDrain int
	cfg := Config{
		StateDir:     dir,
		JobWorkers:   1,
		QueueCap:     4,
		DrainTimeout: 100 * time.Millisecond,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.cfg.DrainHook = func() {
		for _, probe := range []struct {
			path string
			dst  *int
		}{{"/readyz", &readyzDuringDrain}, {"/healthz", &healthzDuringDrain}} {
			resp, err := http.Get(baseURL(s) + probe.path)
			if err != nil {
				t.Errorf("GET %s during drain: %v", probe.path, err)
				continue
			}
			*probe.dst = resp.StatusCode
			resp.Body.Close()
		}
	}
	s.runPool = blockingRunner(release)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	for _, id := range []string{"d1", "d2"} {
		r := postJob(t, s, fmt.Sprintf(`{"id":%q,"kind":"characterize","apps":["cb-gaussian-buffer"]}`, id), "")
		r.Body.Close()
		if r.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: %s", id, r.Status)
		}
	}
	waitState(t, mustJob(t, s, "d1"), StateRunning)

	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if readyzDuringDrain != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", readyzDuringDrain)
	}
	if healthzDuringDrain != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", healthzDuringDrain)
	}
	if _, err := http.Get(baseURL(s) + "/healthz"); err == nil {
		t.Errorf("listener still serving after drain")
	}
	// The obs artifact flushed during drain.
	if _, err := os.Stat(filepath.Join(dir, "metrics.json")); err != nil {
		t.Errorf("metrics.json not flushed: %v", err)
	}

	// d1 was abandoned mid-run (status running), d2 never claimed
	// (status queued): a new life re-queues both.
	s2, err := New(Config{StateDir: dir, JobWorkers: 1})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer s2.Close()
	if got := s2.queue.depth(); got != 2 {
		t.Fatalf("recovered queue depth = %d, want 2", got)
	}
	for _, id := range []string{"d1", "d2"} {
		if _, ok := s2.job(id); !ok {
			t.Errorf("job %s not recovered", id)
		}
	}
}

// TestCancel covers all three cancellation shapes: queued, running, and
// already-terminal.
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{JobWorkers: 1, QueueCap: 4})
	s.runPool = blockingRunner(release)

	for _, id := range []string{"c1", "c2"} {
		r := postJob(t, s, fmt.Sprintf(`{"id":%q,"kind":"characterize","apps":["cb-gaussian-buffer"]}`, id), "")
		r.Body.Close()
	}
	waitState(t, mustJob(t, s, "c1"), StateRunning)

	del := func(id string) *http.Response {
		req, _ := http.NewRequest("DELETE", baseURL(s)+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		return resp
	}

	// Queued: settles immediately.
	r := del("c2")
	r.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "c2")); st != StateCancelled {
		t.Fatalf("c2 settled %s, want cancelled", st)
	}

	// Running: the blocked runner's context dies, job settles cancelled.
	r = del("c1")
	r.Body.Close()
	if st := waitTerminal(t, mustJob(t, s, "c1")); st != StateCancelled {
		t.Fatalf("c1 settled %s, want cancelled", st)
	}

	// Terminal: a no-op.
	r = del("c1")
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel terminal job: got %s, want 200", r.Status)
	}
}

// TestStateDirExclusive pins the daemon-vs-daemon flock: a second
// server on the same state dir fails fast instead of double-replaying
// journals.
func TestStateDirExclusive(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir})
	if _, err := New(Config{StateDir: dir}); err == nil {
		t.Fatalf("second New on live state dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("New after Close: %v", err)
	}
	_ = s2.Close()
}

// TestFreshIDSkipsTaken ensures generated IDs dodge both registry
// entries and leftover directories.
func TestFreshIDSkipsTaken(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := os.MkdirAll(s.jobDir("job-0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	id := s.freshID()
	s.mu.Unlock()
	if id == "job-0000" {
		t.Fatalf("freshID returned a taken id")
	}
}

// TestConcurrentSubmitsNeverShareAnID: concurrent submissions without an
// ID each get a job of their own, and concurrent submissions of one
// client ID admit exactly one job, registered once.
func TestConcurrentSubmitsNeverShareAnID(t *testing.T) {
	const n = 16
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, Config{QueueCap: 2 * n, JobWorkers: 1})
	s.runPool = blockingRunner(release)

	// submitAll posts spec n times at once and returns each response's
	// status code and job ID (code 0 on a transport error).
	submitAll := func(spec string) (codes []int, ids []string) {
		codes, ids = make([]int, n), make([]string, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := http.Post(baseURL(s)+"/api/v1/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				var v JobView
				_ = json.NewDecoder(resp.Body).Decode(&v)
				codes[i], ids[i] = resp.StatusCode, v.ID
			}(i)
		}
		close(start)
		wg.Wait()
		return codes, ids
	}

	codes, ids := submitAll(`{"kind":"subsets","apps":["cb-gaussian-buffer"]}`)
	seen := make(map[string]bool, n)
	for i := range codes {
		if codes[i] != http.StatusCreated {
			t.Fatalf("id-less submit %d: status %d, want 201", i, codes[i])
		}
		if seen[ids[i]] {
			t.Fatalf("two submissions were both admitted as %s", ids[i])
		}
		seen[ids[i]] = true
	}

	codes, ids = submitAll(`{"id":"same","kind":"subsets","apps":["cb-gaussian-buffer"]}`)
	created := 0
	for i := range codes {
		if codes[i] == http.StatusCreated {
			created++
		} else if codes[i] != http.StatusOK {
			t.Fatalf("resubmit %d of one ID: status %d, want 201 or 200", i, codes[i])
		}
		if ids[i] != "same" {
			t.Fatalf("resubmit %d of one ID answered for job %q", i, ids[i])
		}
	}
	if created != 1 {
		t.Fatalf("%d submissions of one ID were admitted, want 1", created)
	}
	listed := 0
	for _, j := range s.listJobs() {
		if j.ID == "same" {
			listed++
		}
	}
	if total := len(s.listJobs()); listed != 1 || total != n+1 {
		t.Fatalf("registry lists %q %d times among %d jobs, want once among %d", "same", listed, total, n+1)
	}
}

// TestBackoffDeterministicAndCapped pins the retry backoff shape.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: 800 * time.Millisecond}
	for pass := 0; pass < 6; pass++ {
		d1 := b.Delay(pass, "job-a")
		d2 := b.Delay(pass, "job-a")
		if d1 != d2 {
			t.Fatalf("pass %d: non-deterministic delay %v != %v", pass, d1, d2)
		}
		nominal := 100 * time.Millisecond << uint(pass)
		if nominal > b.Cap {
			nominal = b.Cap
		}
		if d1 < nominal/2 || d1 >= nominal*3/2 {
			t.Fatalf("pass %d: delay %v outside [%v, %v)", pass, d1, nominal/2, nominal*3/2)
		}
	}
	if b.Delay(0, "job-a") == b.Delay(0, "job-b") {
		t.Fatalf("jitter identical across keys")
	}
}

// TestBreaker pins the consecutive-failure semantics.
func TestBreaker(t *testing.T) {
	b := newBreaker(3)
	seq := []struct {
		failed, trip bool
	}{
		{true, false}, {true, false}, {false, false}, // success resets
		{true, false}, {true, false}, {true, true}, // third consecutive trips
		{true, false}, // already tripped: no second trip signal
	}
	for i, step := range seq {
		if got := b.observe(step.failed); got != step.trip {
			t.Fatalf("step %d: observe(%v) = %v, want %v", i, step.failed, got, step.trip)
		}
	}
	if !b.Tripped() {
		t.Fatalf("breaker not tripped")
	}
	if newBreaker(0).observe(true) {
		t.Fatalf("disabled breaker tripped")
	}
}

// TestJobSpecValidate covers the canonicalization and rejection edges.
func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{Kind: KindCharacterize}
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	if good.Scale != "tiny" || good.Trials != 1 || good.Config != "hd4000" {
		t.Fatalf("defaults not filled: %+v", good)
	}
	bad := []JobSpec{
		{},
		{Kind: "explode"},
		{Kind: KindRepro, ID: "../escape"},
		{Kind: KindRepro, ID: ".."},
		{Kind: KindRepro, Scale: "galactic"},
		{Kind: KindRepro, Trials: 65},
		{Kind: KindRepro, Config: "hd9999"},
		{Kind: KindRepro, Apps: []string{"no-such-app"}},
		{Kind: KindRepro, FaultRate: 1.5},
		{Kind: KindRepro, TimeoutSec: -1},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
}

// TestMetricsEndpoints ensures the obs surface is wired on the same
// listener.
func TestMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := http.Get(baseURL(s) + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %v %v", err, resp.Status)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "gtpind_jobs_admitted_total") {
		t.Fatalf("/metrics missing service counters:\n%s", body.String())
	}
	resp2, err := http.Get(baseURL(s) + "/metrics.json")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.json: %v %v", err, resp2.Status)
	}
	resp2.Body.Close()
}
