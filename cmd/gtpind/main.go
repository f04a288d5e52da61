// Command gtpind is the fault-tolerant profiling daemon: an HTTP/JSON
// front end over the supervised sweep pool, so characterize/repro/
// subsets jobs can be submitted, queued, cancelled, and resumed without
// re-invoking the CLI harnesses — and so the process-wide hot caches
// stay warm across jobs.
//
// Usage:
//
//	gtpind -state-dir DIR [-addr :8321] [-queue-cap N] [-job-workers N]
//	       [-unit-workers N] [-breaker-threshold N] [-drain-timeout D]
//	       [-unit-timeout D] [-tenants FILE] [-smoke]
//
// The daemon claims -state-dir with an exclusive flock (a second daemon
// or a CLI sweep pointed at the same directory fails fast instead of
// replaying the same journals), recovers any jobs a previous life left
// queued or running, and serves:
//
//	POST   /api/v1/jobs                   submit a job (429 + Retry-After when full)
//	GET    /api/v1/jobs                   list jobs
//	GET    /api/v1/jobs/{id}              one job's state and progress
//	DELETE /api/v1/jobs/{id}              cancel a job
//	GET    /api/v1/jobs/{id}/result       the canonical result.json
//	GET    /api/v1/jobs/{id}/artifacts    artifact inventory (and .../{name})
//	GET    /healthz /readyz               liveness / readiness
//	GET    /metrics /metrics.json         Prometheus text / obs snapshot
//
// SIGTERM and SIGINT trigger a graceful drain: /readyz flips to 503
// while the listener still serves, admission stops, in-flight jobs
// finish (or, past -drain-timeout, are abandoned to their journals for
// the next start), the metrics artifact is flushed, then the listener
// closes. SIGKILL is survivable by design: restart with the same
// -state-dir and interrupted jobs resume to byte-identical artifacts.
//
// -smoke runs a self-contained smoke test instead of serving: start on
// a loopback port, submit a tiny job over HTTP, poll it to completion,
// drain, and exit non-zero on any failure. CI uses it as the service
// health gate (make serve-smoke).
//
// See docs/service.md for the API and job lifecycle in detail.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gtpin/internal/fleet"
	"gtpin/internal/service"
)

func main() {
	// Fleet-mode jobs spawn workers by re-executing this binary;
	// MaybeWorker diverts those children into the worker loop before any
	// daemon setup runs.
	fleet.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gtpind:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8321", "listen address")
	stateDir := flag.String("state-dir", "", "service state directory (required): job specs, journals, artifacts")
	queueCap := flag.Int("queue-cap", service.DefaultQueueCap, "bounded queue capacity; full queue sheds with 429 + Retry-After")
	jobWorkers := flag.Int("job-workers", service.DefaultJobWorkers, "jobs executing concurrently")
	unitWorkers := flag.Int("unit-workers", 0, "per-job pool shards (0 = GOMAXPROCS); artifacts identical at any setting")
	breakerThreshold := flag.Int("breaker-threshold", service.DefaultBreakerThreshold, "consecutive unit failures that trip a job's circuit breaker (-1 disables)")
	drainTimeout := flag.Duration("drain-timeout", service.DefaultDrainTimeout, "how long a SIGTERM drain waits for in-flight jobs before journaling them")
	unitTimeout := flag.Duration("unit-timeout", 0, "per-unit wall-clock bound; hung units are abandoned as unit-timeout faults (0 = off)")
	tenants := flag.String("tenants", "", "tenant policy file (JSON); absent means open admission")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke test (submit a tiny job, drain) and exit")
	flag.Parse()

	if *stateDir == "" {
		return fmt.Errorf("-state-dir is required")
	}

	cfg := service.Config{
		StateDir:         *stateDir,
		QueueCap:         *queueCap,
		JobWorkers:       *jobWorkers,
		UnitWorkers:      *unitWorkers,
		BreakerThreshold: normalizeDisable(*breakerThreshold),
		DrainTimeout:     *drainTimeout,
		UnitTimeout:      *unitTimeout,
		Logf:             log.New(os.Stderr, "", log.LstdFlags).Printf,
	}
	if *tenants != "" {
		pol, err := service.LoadPolicies(*tenants)
		if err != nil {
			return err
		}
		cfg.Tenants = pol
		log.Printf("gtpind: closed admission, tenants: %v", pol.Names())
	}

	if *smoke {
		return runSmoke(cfg)
	}

	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		srv.Close()
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("gtpind: %v: draining (second signal aborts immediately)", got)
	go func() {
		<-sig
		log.Printf("gtpind: second signal: aborting")
		os.Exit(1)
	}()
	return srv.Drain()
}

// normalizeDisable maps the CLI's "-1 disables" convention onto the
// Config convention (negative disables, 0 means default).
func normalizeDisable(v int) int {
	if v < 0 {
		return -1
	}
	return v
}

// smokeDrainTimeout bounds the smoke test's drain so a wedged queue
// fails CI instead of hanging it.
const smokeDrainTimeout = 60 * time.Second
