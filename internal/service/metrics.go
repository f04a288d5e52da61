package service

import "gtpin/internal/obs"

// Service metrics, registered on the process-wide obs registry so the
// daemon's /metrics endpoint exports them alongside the pool and cache
// metrics from internal/workloads.
var (
	mJobsAdmitted = obs.DefaultCounter("gtpind_jobs_admitted_total",
		"Jobs accepted into the queue (including recovered jobs).")
	mJobsShed = obs.DefaultCounter("gtpind_jobs_shed_total",
		"Job submissions rejected with 429 because the queue was full or a tenant hit its quota.")
	mJobsResumed = obs.DefaultCounter("gtpind_jobs_resumed_total",
		"Jobs re-queued at startup from a previous daemon life.")
	mJobsCompleted = obs.DefaultCounter("gtpind_jobs_completed_total",
		"Jobs that finished with every unit completed.")
	mJobsPartial = obs.DefaultCounter("gtpind_jobs_partial_total",
		"Jobs degraded to partial results (failed or skipped units, or a tripped breaker).")
	mJobsFailed = obs.DefaultCounter("gtpind_jobs_failed_total",
		"Jobs that produced no usable units or hit a job-level error.")
	mJobsCancelled = obs.DefaultCounter("gtpind_jobs_cancelled_total",
		"Jobs cancelled by the client.")
	mJobsInterrupted = obs.DefaultCounter("gtpind_jobs_interrupted_total",
		"Jobs interrupted by drain or shutdown and left resumable on disk.")
	mQueueDepth = obs.DefaultGauge("gtpind_queue_depth",
		"Jobs currently waiting in the admission queue.")
	mJobsRunning = obs.DefaultGauge("gtpind_jobs_running",
		"Jobs currently executing on the pool.")
	mBreakerTrips = obs.DefaultCounter("gtpind_breaker_trips_total",
		"Per-job circuit breakers tripped by consecutive unit failures.")
)
