package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gtpin/benchmark/result"
	"gtpin/internal/faults"
	"gtpin/internal/service"
	"gtpin/internal/workloads"
)

// serviceWL drives gtpind in-process over HTTP with many small
// characterize jobs, one application and two trials each. Jobs are
// journaled with fsync through runstate, and the rewrite cache stays warm
// for the life of the process — the same layers characterize uses, in a
// different shape. Each pass runs its jobs one after another from one
// client, so the process CPU time between one job's submission and its
// checked result is that job's. A traced pass then adds an open loop at
// a fixed rate, for the latency from each job's due time. An op is one
// job: submitted, polled to completion, result fetched and checked.
type serviceWL struct {
	cfg  config
	t    *tally
	log  io.Writer
	apps []string
	want map[string]string // unit key -> artifact digest, from the in-process pipeline

	srv    *service.Server
	dir    string
	base   string
	client *http.Client
	next   atomic.Int64 // job sequence; picks the application

	mu   sync.Mutex
	seen map[string]string // unit key -> digest the service reported
}

const (
	serviceTrials = 2
	httpConns     = 2
	pollInterval  = 5 * time.Millisecond
	// untracedPoll is the poll interval of untraced runs. Each poll costs
	// CPU time, and a job's polls grow with its wall-clock time, which
	// fsync latency on a shared disk sets: polling every 5 ms made a job's
	// CPU time follow the disk.
	untracedPoll = 25 * time.Millisecond
	warmupJobs   = 5
)

func (s *serviceWL) describe() string {
	return fmt.Sprintf("gtpind with %d job workers; jobs of 1 app x %d trials at scale %s from %d apps; a pass is %d jobs one at a time, and traced also %d jobs open loop at %g jobs/s; %d HTTP connections",
		workers, serviceTrials, s.cfg.Size.Scale.Name, s.cfg.Size.Apps, s.cfg.Size.Jobs, s.cfg.Size.Jobs, s.cfg.Size.Rate, httpConns)
}

// setup computes the artifact digest every job's units must report,
// starts a fresh daemon on a loopback port, and warms it with a few jobs.
func (s *serviceWL) setup() error {
	if err := s.Close(); err != nil {
		return err
	}
	specs := roster(s.cfg.Seed, workloads.All()[:s.cfg.Size.Apps])
	s.apps = s.apps[:0]
	for _, sp := range specs {
		s.apps = append(s.apps, sp.Name)
	}
	if s.want == nil {
		s.want = make(map[string]string)
		s.seen = make(map[string]string)
	}
	// A job runs trials 1..serviceTrials of its application.
	var trials []int64
	for t := int64(1); t <= serviceTrials; t++ {
		trials = append(trials, t)
	}
	if _, err := profileUnits(layout(specs, s.cfg.Size.Scale, trials...), s.want); err != nil {
		return err
	}

	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return err
	}
	var err error
	if s.dir, err = os.MkdirTemp(s.cfg.Dir, "service-"); err != nil {
		return err
	}
	if s.srv, err = service.New(service.Config{StateDir: s.dir, JobWorkers: workers, UnitWorkers: 1}); err != nil {
		return err
	}
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	s.base = "http://" + s.srv.Addr()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns},
		Timeout:   time.Minute,
	}
	for i := 0; i < warmupJobs; i++ {
		if o := s.job(nil); o.err != nil {
			return fmt.Errorf("warm-up job: %w", o.err)
		}
	}
	return nil
}

// Close stops the daemon and removes its state directory.
func (s *serviceWL) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	s.srv = nil
	return err
}

// jobOut is one job as the client saw it.
type jobOut struct {
	req                      string
	err                      error
	end                      time.Time
	cpu                      time.Duration // process CPU time while the job ran
	submit, wait, run, fetch time.Duration
	polls                    int
	shed                     bool
}

func (s *serviceWL) measure(budget time.Duration, rec *recorder, host *hostSpeed) (*phase, error) {
	p := &phase{}
	var (
		mu   sync.Mutex
		outs []jobOut
		open []float64 // open-loop latency from each job's due time
		lags []time.Duration
	)
	record := func(o jobOut) {
		s.t.op(o.req, o.err)
		mu.Lock()
		outs = append(outs, o)
		mu.Unlock()
	}
	before := snapshotCounters()
	stopDepth := s.sampleQueueDepth(rec != nil)
	err := passes(budget, host, func() error {
		start := time.Now()
		ps, err := s.serial(rec, record)
		if err != nil {
			return err
		}
		p.passes = append(p.passes, ps)
		if rec != nil {
			lat, lg := s.openLoop(rec, record)
			open = append(open, lat...)
			lags = append(lags, lg...)
		}
		p.wall += time.Since(start)
		return nil
	})
	depthMax := stopDepth()
	p.ops = len(outs)
	if err != nil || rec == nil {
		return p, err
	}

	after := snapshotCounters()
	var submit, wait, run, fetch, lagMs []float64
	polls, shed := 0, 0
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		wait = append(wait, ms(o.wait))
		run = append(run, ms(o.run))
		fetch = append(fetch, ms(o.fetch))
		polls += o.polls
		if o.shed {
			shed++
		}
	}
	for _, l := range lags {
		lagMs = append(lagMs, ms(l))
	}
	p.layers = []string{"service.run"}
	openNote := fmt.Sprintf("open loop at %g jobs/s, from each job's due time", s.cfg.Size.Rate)
	p.perLayer = map[string]result.Metric{
		"service.job_p50_ms": {Value: result.Percentile(open, 50), Unit: "ms", N: len(open), Note: openNote},
		"service.job_p90_ms": {Value: result.Percentile(open, 90), Unit: "ms", N: len(open),
			Note: fmt.Sprintf("%s; highest percentile with 10 samples beyond it: p%d", openNote, result.TailPercentile(len(open)))},
		"service.submit_ms_p50":     {Value: result.Median(submit), Unit: "ms", N: len(submit)},
		"service.queue_wait_ms_p50": {Value: result.Median(wait), Unit: "ms", N: len(wait), Note: fmt.Sprintf("state polled every %v", pollInterval)},
		"service.run_ms_p50":        {Value: result.Median(run), Unit: "ms", N: len(run), Note: fmt.Sprintf("state polled every %v", pollInterval)},
		"service.result_ms_p50":     {Value: result.Median(fetch), Unit: "ms", N: len(fetch)},
		"service.shed":              {Value: float64(shed), Unit: "count", N: len(outs)},
		"service.queue_depth_max":   {Value: float64(depthMax), Unit: "count", Note: "gtpind_queue_depth sampled from /metrics.json"},
		"runstate.journal_records":  perOp(float64(after["runstate_journal_records_total"]-before["runstate_journal_records_total"]), p.ops, "count/op"),
		"runstate.artifact_bytes":   perOp(float64(after["runstate_artifact_bytes_total"]-before["runstate_artifact_bytes_total"]), p.ops, "bytes/op"),
		"loadgen.lag_p95_ms":        {Value: result.Percentile(lagMs, 95), Unit: "ms", N: len(lagMs)},
		"loadgen.polls":             perOp(float64(polls), p.ops, "count/op"),
	}
	return p, nil
}

// serial runs Jobs jobs one after another from one client and returns
// them as a pass: each job's process CPU time, and the jobs completed
// per CPU-second.
func (s *serviceWL) serial(rec *recorder, record func(jobOut)) (pass, error) {
	var ps pass
	var cpu time.Duration
	done := 0
	for i := 0; i < s.cfg.Size.Jobs; i++ {
		o := s.job(rec)
		record(o)
		if o.err == nil {
			done++
		}
		cpu += o.cpu
		ps.cpuMs = append(ps.cpuMs, ms(o.cpu))
	}
	if done == 0 {
		return ps, fmt.Errorf("no job of %d completed", s.cfg.Size.Jobs)
	}
	ps.rate = float64(done) / cpu.Seconds()
	return ps, nil
}

// openLoop submits Jobs jobs at the fixed rate and returns each job's
// latency from its due time, and how late the generator fired each.
func (s *serviceWL) openLoop(rec *recorder, record func(jobOut)) ([]float64, []time.Duration) {
	lat := make([]float64, s.cfg.Size.Jobs)
	lags := openLoop(time.Now(), time.Duration(float64(time.Second)/s.cfg.Size.Rate), len(lat), func(i int, due time.Time) {
		o := s.job(rec)
		record(o)
		lat[i] = ms(o.end.Sub(due))
	})
	return lat, lags
}

// job runs one job: submit, poll its state until terminal, fetch and
// check the result. Each step is a span under the job's root span; the
// queued and running intervals are seen through the polls.
func (s *serviceWL) job(rec *recorder) (o jobOut) {
	seq := s.next.Add(1)
	app := s.apps[int(seq-1)%len(s.apps)]
	req := fmt.Sprintf("job %d %s", seq, app)
	o.req = req
	root := rec.open("service.job", req, 0)
	cpu0 := cpuTime()
	defer func() {
		o.end, o.cpu = time.Now(), cpuTime()-cpu0
		root.end()
	}()

	sp := rec.open("service.submit", req, root.id())
	t0 := time.Now()
	// The client names each job: server-assigned IDs can collide when two
	// submissions race (two jobs admitted as the same job-NNNN, and the
	// second fails on the first's state-directory lock).
	spec, err := json.Marshal(service.JobSpec{
		ID: fmt.Sprintf("bench-%d", seq), Kind: service.KindCharacterize,
		Apps: []string{app}, Scale: s.cfg.Size.Scale.Name, Trials: serviceTrials,
	})
	var view service.JobView
	code := 0
	if err == nil {
		code, err = s.do("POST", "/api/v1/jobs", spec, &view)
	}
	o.submit = time.Since(t0)
	sp.end()
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s: submit: %w", req, err)
		return o
	case code == http.StatusTooManyRequests:
		o.shed = true
		o.err = fmt.Errorf("%s: submit shed with HTTP 429: %w", req, faults.ErrQueueFull)
		return o
	case code != http.StatusCreated:
		o.err = fmt.Errorf("%s: submit: HTTP %d", req, code)
		return o
	}

	queued := time.Now()
	var running time.Time
	poll := pollInterval
	if rec == nil {
		poll = untracedPoll
	}
	for !view.State.Terminal() {
		time.Sleep(poll)
		if code, err = s.do("GET", "/api/v1/jobs/"+view.ID, nil, &view); err != nil || code != http.StatusOK {
			o.err = fmt.Errorf("%s: poll: HTTP %d: %v", req, code, err)
			return o
		}
		o.polls++
		if view.State != service.StateQueued && running.IsZero() {
			running = time.Now()
		}
	}
	done := time.Now()
	o.wait, o.run = running.Sub(queued), done.Sub(running)
	if rec != nil {
		rec.add(span{ID: rec.newID(), Parent: root.id(), Name: "service.queue_wait", Req: req, Start: queued.Sub(rec.t0).Nanoseconds(), End: running.Sub(rec.t0).Nanoseconds()})
		rec.add(span{ID: rec.newID(), Parent: root.id(), Name: "service.run", Req: req, Start: running.Sub(rec.t0).Nanoseconds(), End: done.Sub(rec.t0).Nanoseconds()})
	}
	if view.State != service.StateDone {
		o.err = fmt.Errorf("%s: job %s ended %s: %s", req, view.ID, view.State, view.Error)
		return o
	}

	sp = rec.open("service.result", req, root.id())
	var rf struct {
		Units []struct {
			Key    string `json:"key"`
			Status string `json:"status"`
			Digest string `json:"digest"`
		} `json:"units"`
	}
	code, err = s.do("GET", "/api/v1/jobs/"+view.ID+"/result", nil, &rf)
	o.fetch = time.Since(done)
	sp.end()
	if err != nil || code != http.StatusOK {
		o.err = fmt.Errorf("%s: result: HTTP %d: %v", req, code, err)
		return o
	}
	if len(rf.Units) != serviceTrials {
		o.err = fmt.Errorf("%s: result has %d units, want %d: %w", req, len(rf.Units), serviceTrials, errMismatch)
		return o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range rf.Units {
		if u.Status != "completed" || u.Digest != s.want[u.Key] {
			o.err = fmt.Errorf("%s: unit %s %s digest %.12s, in-process pipeline %.12s: %w", req, u.Key, u.Status, u.Digest, s.want[u.Key], errMismatch)
			return o
		}
		s.seen[u.Key] = u.Digest
	}
	return o
}

// do sends one request and decodes a JSON response body into out when
// the status is 2xx.
func (s *serviceWL) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// sampleQueueDepth polls /metrics.json for the queue-depth gauge until
// the returned function is called, which returns the largest value seen.
// Untraced runs skip the sampling and report 0.
func (s *serviceWL) sampleQueueDepth(enabled bool) func() int64 {
	if !enabled {
		return func() int64 { return 0 }
	}
	var peak int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			var snap struct {
				Gauges map[string]int64 `json:"gauges"`
			}
			if code, err := s.do("GET", "/metrics.json", nil, &snap); err == nil && code == http.StatusOK {
				peak = max(peak, snap.Gauges["gtpind_queue_depth"])
			}
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-done
		return peak
	}
}

func (s *serviceWL) digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return digestOf(s.seen)
}
