package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gtpin/internal/faults"
	"gtpin/internal/obs"
)

// maxBodyBytes bounds a job submission body; specs are small.
const maxBodyBytes = 1 << 20

// retryAfterSeconds is the fixed Retry-After hint on draining (503)
// responses, and the fallback for shed (429) responses before any unit
// has completed. Once units flow, 429s hint adaptively instead — see
// retryAfterHint in retryafter.go.
const retryAfterSeconds = "5"

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handler wires the API. One listener serves jobs, health, readiness,
// metrics, and artifacts — the acceptance shape for the daemon.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts", s.handleArtifactList)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() && !s.draining.Load() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
			return
		}
		w.Header().Set("Retry-After", retryAfterSeconds)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, obs.Default().Snapshot())
	})
	return mux
}

// handleSubmit is POST /api/v1/jobs: validate, authenticate, fold the
// tenant policy into the spec, and admit — or shed with 429 when the
// queue or the tenant quota is full, or 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeErr(w, http.StatusServiceUnavailable, "draining: not admitting jobs")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	tenant, pol, ok := s.cfg.Tenants.Lookup(r.Header.Get("X-API-Key"))
	if !ok {
		writeErr(w, http.StatusUnauthorized, "unknown API key")
		return
	}
	spec.applyPolicy(pol)

	// Idempotent resubmission: an existing ID returns the existing job.
	// Otherwise the ID is reserved before anything touches disk, and
	// every failure below must release it.
	j, fresh := s.reserve(spec, tenant)
	if !fresh {
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	// The tenant's count includes the reservation itself.
	if pol.MaxQueued > 0 && s.tenantJobs(tenant) > pol.MaxQueued {
		s.unregister(j.ID)
		mJobsShed.Inc()
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeErr(w, http.StatusTooManyRequests,
			"tenant %q at max_queued=%d; retry later", tenant, pol.MaxQueued)
		return
	}
	if _, err := os.Stat(j.dir); err == nil {
		// On disk but not in the registry: a leftover from a recovery
		// skip. Refuse rather than silently reuse foreign state.
		s.unregister(j.ID)
		writeErr(w, http.StatusConflict, "job directory %s already exists", j.ID)
		return
	}
	// abort rolls the admission back completely, so a retry of the same
	// ID starts clean.
	abort := func() {
		s.unregister(j.ID)
		_ = os.RemoveAll(j.dir)
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		abort()
		writeErr(w, http.StatusInternalServerError, "create job dir: %v", err)
		return
	}
	if err := j.persistSpec(); err != nil {
		abort()
		writeErr(w, http.StatusInternalServerError, "persist job spec: %v", err)
		return
	}
	if err := j.setState(StateQueued, ""); err != nil {
		abort()
		writeErr(w, http.StatusInternalServerError, "persist job status: %v", err)
		return
	}
	if err := s.queue.push(j); err != nil {
		abort()
		mJobsShed.Inc()
		if errors.Is(err, faults.ErrQueueFull) {
			w.Header().Set("Retry-After", s.retryAfterHint())
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	mJobsAdmitted.Inc()
	s.cfg.Logf("gtpind: job %s: admitted (%s, tenant %q, queue depth %d)",
		j.ID, spec.Kind, tenant, s.queue.depth())
	writeJSON(w, http.StatusCreated, j.View())
}

// freshID picks the next free job-NNNN identifier, free both in the
// registry and on disk; s.mu must be held. IDs only need to be unique
// within the state dir; clients that care supply their own.
func (s *Server) freshID() string {
	for n := len(s.order); ; n++ {
		id := fmt.Sprintf("job-%04d", n)
		if _, taken := s.jobs[id]; taken {
			continue
		}
		if _, err := os.Stat(s.jobDir(id)); err == nil {
			continue
		}
		return id
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.listJobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleCancel is DELETE /api/v1/jobs/{id}: a queued job is unlinked
// and settled cancelled; a running job gets its context cancelled and
// settles asynchronously; a terminal job is left alone.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if j.State().Terminal() {
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	j.requestCancel()
	if s.queue.remove(j.ID) {
		// Still queued: settle it here; no worker will ever claim it.
		mJobsCancelled.Inc()
		if err := j.setState(StateCancelled, "cancelled by client"); err != nil {
			s.cfg.Logf("gtpind: job %s: %v", j.ID, err)
		}
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	path := filepath.Join(j.dir, "result.json")
	if _, err := os.Stat(path); err != nil {
		writeErr(w, http.StatusConflict, "job %s has no result yet (state %s)", j.ID, j.State())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, path)
}

// handleArtifactList is GET /api/v1/jobs/{id}/artifacts: the flat file
// inventory a client can fetch by name.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	var names []string
	for _, top := range []string{"job.json", "status.json", "result.json"} {
		if _, err := os.Stat(filepath.Join(j.dir, top)); err == nil {
			names = append(names, top)
		}
	}
	if entries, err := os.ReadDir(filepath.Join(j.dir, "state", "units")); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, struct {
		Artifacts []string `json:"artifacts"`
	}{names})
}

// handleArtifact serves one named artifact file. Names are flat — any
// path separator is rejected, so the handler cannot traverse out of the
// job directory.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	name := r.PathValue("name")
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		writeErr(w, http.StatusBadRequest, "invalid artifact name")
		return
	}
	for _, path := range []string{
		filepath.Join(j.dir, "state", "units", name),
		filepath.Join(j.dir, name),
	} {
		if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
			http.ServeFile(w, r, path)
			return
		}
	}
	writeErr(w, http.StatusNotFound, "no such artifact")
}
