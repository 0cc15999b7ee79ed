package serve

import (
	"sync/atomic"

	"srvsim/internal/obsv"
)

// metrics aggregates the service counters exported at /v1/metrics. The obsv
// registry is a view layer over these atomics (collect-on-scrape, PR 3
// discipline): handlers and workers bump the atomics on their path, and the
// registry reads them only when scraped, so observation never serialises
// request handling.
type metrics struct {
	requests     atomic.Int64 // HTTP requests accepted (any endpoint)
	submitted    atomic.Int64 // simulation jobs admitted to the queue
	coalesced    atomic.Int64 // submissions that joined the live job of their key
	rejectedFull atomic.Int64 // submissions refused with 429 (queue full)
	invalid      atomic.Int64 // submissions refused with 400 (bad request)
	cacheHits    atomic.Int64 // submissions served from the result cache
	cacheMisses  atomic.Int64 // submissions that had to simulate
	jobsDone     atomic.Int64 // jobs finished successfully
	jobsFailed   atomic.Int64 // jobs finished with a typed failure
	running      atomic.Int64 // jobs executing right now
	queued       atomic.Int64 // jobs waiting in the queue right now

	// Admission control and drain (this PR's robustness layer).
	shedDeadline     atomic.Int64 // submissions shed with 429 (predicted queue wait over deadline)
	shedOversize     atomic.Int64 // submissions shed with 413 (body over -max-inflight-bytes)
	rejectedDraining atomic.Int64 // submissions refused with 503 while draining

	// Multi-tenant isolation and overload protection.
	shedQuota      atomic.Int64 // submissions refused with 429 (tenant over rate or in-flight-bytes quota)
	shedTenantFull atomic.Int64 // submissions refused with 429 (tenant's queue share full)
	shedBrownout   atomic.Int64 // submissions refused with 429 by a brownout step
	jobsExpired    atomic.Int64 // jobs refused or cancelled because their deadline passed
	drains         atomic.Int64 // graceful drains begun (0 or 1 per process)
	drainMS        atomic.Int64 // duration of the last drain, milliseconds
	serviceNanos   atomic.Int64 // EWMA of successful job service time, ns (Retry-After source)

	// Durable job journal.
	journalRecords          atomic.Int64 // records appended to the journal
	journalErrors           atomic.Int64 // journal appends that failed (or torn tail lines dropped)
	journalReplayedDone     atomic.Int64 // completed jobs restored into the cache on startup
	journalReplayedRequeued atomic.Int64 // interrupted/queued jobs re-enqueued on startup

	// Checkpoint/resume (this PR's robustness layer).
	checkpointsJournaled   atomic.Int64 // machine checkpoints journaled while jobs ran
	jobsPreempted          atomic.Int64 // jobs cancelled by drain/shutdown and journaled as resumable
	journalReplayedResumed atomic.Int64 // re-enqueued jobs that carried checkpoints to resume from

	// SLO latency histograms (observed by workers, scraped concurrently, so
	// they carry a mutex). Built by initHistograms before registry runs.
	queueWaitMS *obsv.Histogram // submission → worker pickup
	e2eMS       *obsv.Histogram // submission → terminal state (cache hits included)
}

// sloBucketsMS are the latency bucket bounds, in milliseconds: fine enough
// under a second to see queueing, coarse decades above it for long
// simulations.
var sloBucketsMS = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}

// initHistograms builds the latency histograms; the server calls it once
// before registry (metrics is a value field, so this cannot live in a
// constructor).
func (m *metrics) initHistograms() {
	m.queueWaitMS = obsv.NewSyncHistogram(sloBucketsMS...)
	m.e2eMS = obsv.NewSyncHistogram(sloBucketsMS...)
}

// clientMet holds the resilient client's counters. They are package-level —
// a Client is not a server and has no registry of its own — and every Server
// registers them, so an in-process client+daemon pair (srvbench -remote
// against a local daemon, the e2e tests) surfaces retry and breaker
// activity at /v1/metrics. For a purely remote client they read zero on the
// daemon, which is also the truth the daemon can see.
var clientMet struct {
	retries          atomic.Int64 // attempts beyond the first, any endpoint
	breakerOpens     atomic.Int64 // closed/half-open → open transitions
	breakerHalfOpens atomic.Int64 // open → half-open transitions (probe admitted)
	breakerCloses    atomic.Int64 // open/half-open → closed transitions (probe succeeded)
}

// registry builds the obsv view over the live counters plus the server's
// cache occupancy and span buffer. Registration is not concurrency-safe
// (obsv contract), so the server builds this exactly once at construction.
func (m *metrics) registry(cacheLen func() int64, brownout func() int64, spans *obsv.SpanRecorder) *obsv.Registry {
	reg := obsv.NewRegistry()
	s := reg.Section("serve")
	s.CounterFn("serve.http_requests", "HTTP requests accepted across all endpoints", m.requests.Load)
	s.CounterFn("serve.jobs_submitted", "simulation jobs admitted to the queue", m.submitted.Load)
	s.CounterFn("serve.jobs_coalesced", "submissions that joined the queued or running job of their key", m.coalesced.Load)
	s.CounterFn("serve.jobs_rejected_queue_full", "submissions refused because the queue was full", m.rejectedFull.Load)
	s.CounterFn("serve.jobs_rejected_invalid", "submissions refused as invalid requests", m.invalid.Load)
	s.CounterFn("serve.jobs_shed_deadline", "submissions shed because the predicted queue wait exceeded the deadline", m.shedDeadline.Load)
	s.CounterFn("serve.jobs_shed_oversize", "submissions shed because the request body exceeded the size guard", m.shedOversize.Load)
	s.CounterFn("serve.jobs_rejected_draining", "submissions refused while the server was draining", m.rejectedDraining.Load)
	s.CounterFn("serve.jobs_shed_quota", "submissions refused because the tenant was over a rate or in-flight-bytes quota", m.shedQuota.Load)
	s.CounterFn("serve.jobs_rejected_tenant_full", "submissions refused because the tenant's queue share was full", m.shedTenantFull.Load)
	s.CounterFn("serve.jobs_shed_brownout", "submissions refused by a brownout step", m.shedBrownout.Load)
	s.CounterFn("serve.jobs_expired_deadline", "jobs refused or cancelled because their caller deadline passed", m.jobsExpired.Load)
	s.Gauge("serve.brownout_step", "current brownout step (0 serving, 1 shed-low, 2 no-new-work, 3 cached-only)", "%.0f",
		func() float64 { return float64(brownout()) })
	s.CounterFn("serve.jobs_done", "jobs finished successfully", m.jobsDone.Load)
	s.CounterFn("serve.jobs_failed", "jobs finished with a contained failure", m.jobsFailed.Load)
	s.CounterFn("serve.jobs_running", "jobs executing right now", m.running.Load)
	s.CounterFn("serve.queue_depth", "jobs waiting in the queue right now", m.queued.Load)
	s.CounterFn("serve.drains", "graceful drains begun", m.drains.Load)
	s.CounterFn("serve.drain_duration_ms", "duration of the last graceful drain in milliseconds", m.drainMS.Load)
	s.Gauge("serve.job_service_ms_ewma", "moving average of successful job service time in milliseconds", "%.3f",
		func() float64 { return float64(m.serviceNanos.Load()) / 1e6 })
	s.Histogram("serve.queue_wait_ms", "time jobs spent queued before a worker picked them up, milliseconds", m.queueWaitMS)
	s.Histogram("serve.e2e_latency_ms", "end-to-end submission latency (admission to terminal state, cache hits included), milliseconds", m.e2eMS)
	c := reg.Section("serve.cache")
	c.CounterFn("serve.cache.hits", "submissions served byte-identically from the result cache", m.cacheHits.Load)
	c.CounterFn("serve.cache.misses", "submissions that had to simulate", m.cacheMisses.Load)
	c.CounterFn("serve.cache.entries", "results currently held by the cache", cacheLen)
	j := reg.Section("serve.journal")
	j.CounterFn("serve.journal.records", "records appended to the durable job journal", m.journalRecords.Load)
	j.CounterFn("serve.journal.errors", "journal appends that failed or torn tail lines discarded at replay", m.journalErrors.Load)
	j.CounterFn("serve.journal.replayed_done", "completed jobs restored into the result cache at startup", m.journalReplayedDone.Load)
	j.CounterFn("serve.journal.replayed_requeued", "interrupted or queued jobs re-enqueued at startup", m.journalReplayedRequeued.Load)
	j.CounterFn("serve.journal.checkpoints", "machine checkpoints journaled while jobs ran", m.checkpointsJournaled.Load)
	j.CounterFn("serve.journal.replayed_resumed", "re-enqueued jobs that resumed from a journaled checkpoint", m.journalReplayedResumed.Load)
	s.CounterFn("serve.jobs_preempted", "jobs cancelled by drain or shutdown and journaled as resumable", m.jobsPreempted.Load)
	tr := reg.Section("serve.trace")
	tr.CounterFn("serve.trace.spans", "request spans buffered for GET /v1/trace", func() int64 { return int64(spans.Len()) })
	tr.CounterFn("serve.trace.spans_dropped", "request spans dropped because the buffer was full", spans.Dropped)
	cl := reg.Section("serve.client")
	cl.CounterFn("serve.client.retries", "client attempts beyond the first (in-process clients only)", clientMet.retries.Load)
	cl.CounterFn("serve.client.breaker_opens", "circuit breaker transitions to open", clientMet.breakerOpens.Load)
	cl.CounterFn("serve.client.breaker_half_opens", "circuit breaker transitions to half-open", clientMet.breakerHalfOpens.Load)
	cl.CounterFn("serve.client.breaker_closes", "circuit breaker transitions back to closed", clientMet.breakerCloses.Load)
	return reg
}
