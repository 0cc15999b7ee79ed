// Package serve is the long-running simulation service behind cmd/srvd: a
// versioned HTTP/JSON API over the harness's single execution path
// (harness.Run), backed by a bounded job queue and a content-addressed
// result cache. Because the simulator is deterministic and Requests are
// content-addressable (harness.Request.CacheKey), identical submissions are
// served byte-identically from cache, the same batching shape gem5
// deployments use for large design-space sweeps.
//
// API (all under /v1):
//
//	POST /v1/sims             submit a harness.Request; 202 + job status
//	                          (?wait=1 blocks and returns the final status)
//	GET  /v1/sims/{id}        poll one job (its id is the request's CacheKey)
//	GET  /v1/sims/{id}/stream NDJSON progress events, then the final status
//	GET  /v1/healthz          liveness + build identity + serving|draining
//	GET  /v1/metrics          obsv registry JSON (queue/cache/job/journal counters);
//	                          ?format=prometheus for text exposition
//	GET  /v1/trace            request spans as NDJSON (?format=perfetto for a
//	                          Chrome/Perfetto trace)
//
// Observability: submissions propagate W3C traceparent headers, every stage
// of a job's life (admission, cache lookup, queue wait, execute, journal
// append, per-loop progress) is recorded as a span under one TraceID, and
// structured logs (Config.Logger) carry the same trace_id/job/cache_key
// correlation fields.
//
// Robustness: an optional durable job journal (Config.JournalDir) makes
// queued and interrupted jobs survive a crash — replayed on startup,
// completed results are restored byte-identically into the cache and
// unfinished jobs re-enqueue; Drain winds the service down gracefully on
// SIGTERM (refuse new work with 503+Retry-After, finish or cancel in-flight
// jobs, journal final states); admission control sheds jobs whose predicted
// queue wait exceeds Config.QueueDeadline (429 + Retry-After derived from
// observed service time) and bodies over Config.MaxInflightBytes (413).
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/pipeline"
)

// DefaultMaxInflightBytes is the default request-body size guard.
const DefaultMaxInflightBytes = 32 << 20

// Config sizes the service.
type Config struct {
	// Harness is the environment jobs run in: worker bound, reference
	// core, timeouts and the fleet counters the node's simulations add to.
	// nil runs them in the harness package's default Env. It must not have
	// an Executor (a node's jobs would recurse over the network).
	Harness *harness.Env
	// NodeID names this node in a fleet: reported by /v1/healthz and stamped
	// on every JobStatus, so a gateway (cmd/srvgw) and its users can see
	// where a job ran. Empty is fine for a standalone daemon.
	NodeID string
	// Workers is the number of jobs executed concurrently. Each job already
	// fans its simulations out across the harness worker pool
	// (Harness.Parallelism), so a small number of job workers saturates the
	// machine; the default is 2 (one draining while one fills the pool).
	Workers int
	// QueueSize bounds the number of jobs waiting to run; submissions beyond
	// it are refused with 429. Default 64.
	QueueSize int
	// CacheSize bounds the result cache entries (LRU). Default 256; negative
	// disables caching.
	CacheSize int
	// CacheMaxBytes additionally bounds the result cache by total payload
	// bytes, so a few multi-MB benchmark Results cannot blow the memory
	// budget the entry count alone would allow. 0 selects
	// DefaultCacheMaxBytes; negative leaves bytes unbounded.
	CacheMaxBytes int64
	// JobTimeout bounds each job's wall clock (0 = unbounded). Timed-out
	// jobs fail with an ErrCancelled-derived record and HTTP 504.
	JobTimeout time.Duration
	// JournalDir enables the durable job journal: an append-only NDJSON
	// write-ahead log in this directory, replayed on startup so queued and
	// interrupted jobs resume after a crash and completed ones repopulate
	// the cache byte-identically. Empty disables journaling.
	JournalDir string
	// CheckpointEvery journals a machine checkpoint roughly every this many
	// simulated cycles for each running simulation of a job, so a killed or
	// preempted job resumes from its last checkpoint instead of cycle 0 when
	// the journal is next replayed. 0 disables checkpointing. Only meaningful
	// together with JournalDir.
	CheckpointEvery int64
	// QueueDeadline sheds submissions whose predicted queue wait (observed
	// EWMA service time × depth ÷ workers) exceeds it, with 429 and a
	// Retry-After derived from the prediction. 0 disables shedding.
	QueueDeadline time.Duration
	// TenantQueueSize bounds any one tenant's share of the queue; a tenant at
	// its bound is refused with 429 while others still have room. 0 selects
	// QueueSize — a single shared bound, exactly the seed's behaviour.
	TenantQueueSize int
	// TenantQuota is the per-tenant quota applied to every tenant without an
	// override in TenantQuotas: submission-rate token bucket, in-flight body
	// bytes, and fair-queue weight. The zero value means no quotas and the
	// default weight (seed behaviour). New refuses a NaN, infinite or
	// negative limit here or in TenantQuotas.
	TenantQuota TenantLimits
	// TenantQuotas overrides TenantQuota for named tenants (the empty-string
	// key configures the default tenant).
	TenantQuotas map[string]TenantLimits
	// BrownoutHighWater enables brownout mode: when the predicted queue wait
	// crosses it the server degrades in documented steps — above 1× it sheds
	// non-cached submissions from tenants below the maximum configured weight
	// ("shed-low"), above 2× it refuses all non-cached submissions
	// ("no-new-work"), above 4× it additionally refuses live progress streams
	// ("cached-only"); cache hits and status polls are always served. The
	// current step is visible in /v1/healthz and serve.brownout_step.
	// 0 disables brownout.
	BrownoutHighWater time.Duration
	// MaxInflightBytes caps a submission body; larger requests are shed with
	// 413. 0 selects DefaultMaxInflightBytes; negative disables the guard.
	MaxInflightBytes int64
	// Logger receives the server's structured logs (job lifecycle, drains,
	// journal replay), each line carrying trace_id/job/cache_key correlation
	// fields. nil silences logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueSize == 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = DefaultMaxInflightBytes
	}
	return c
}

// Server lifecycle states (Health.State).
const (
	stateServing  int32 = iota // admitting submissions
	stateDraining              // refusing submissions, winding down
)

// Server owns the job queue, the worker goroutines and the result cache.
// Construct with New, install Handler into an http.Server, call Start, and
// Shutdown (or Drain, for the graceful path) on the way out.
type Server struct {
	cfg     Config
	cache   *ResultCache
	met     metrics
	reg     *obsv.Registry
	journal *journal
	spans   *obsv.SpanRecorder
	logger  *slog.Logger

	// jobs holds one record per CacheKey that was admitted to the queue (or
	// replayed from the journal). Cache hits add none.
	mu   sync.RWMutex
	jobs map[string]*job

	tenants *tenantTable

	state    atomic.Int32
	draining chan struct{} // closed when Drain begins: workers stop dequeuing

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	started time.Time
}

// New builds a stopped server; call Start to launch the workers. With
// Config.JournalDir set it replays the journal first: completed jobs are
// restored into the result cache, interrupted ones are staged for
// re-execution (they run once Start is called), and the journal is compacted
// to the live state before new records are appended. Only the completed
// jobs the cache still holds keep their record, so the compacted journal is
// bounded by the cache rather than by every job the node ever finished.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.TenantQuota.validate(); err != nil {
		return nil, fmt.Errorf("serve: tenant quota: %w", err)
	}
	for name, l := range cfg.TenantQuotas {
		if err := l.validate(); err != nil {
			return nil, fmt.Errorf("serve: tenant %s quota: %w", tenantName(name), err)
		}
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewResultCache(cfg.CacheSize, cfg.CacheMaxBytes),
		jobs:     make(map[string]*job),
		draining: make(chan struct{}),
		spans:    obsv.NewSpanRecorder(obsv.DefaultSpanCap),
		logger:   cfg.Logger,
	}
	if s.logger == nil {
		s.logger = obsv.DiscardLogger()
	}
	s.met.initHistograms()
	s.tenants = newTenantTable(cfg.TenantQuota, cfg.TenantQuotas, cfg.QueueSize, cfg.TenantQueueSize)

	var recovered []*job
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: journal dir: %w", err)
		}
		st, err := replayJournal(cfg.JournalDir)
		if err != nil {
			return nil, fmt.Errorf("serve: journal replay: %w", err)
		}
		for _, e := range st.completed {
			s.cache.Put(e.key, e.result)
			s.met.journalReplayedDone.Add(1)
		}
		// A result the cache evicted during the fill is never served, so
		// its done record need not outlive this compaction.
		st.completed = slices.DeleteFunc(st.completed, func(e replayEntry) bool { return !s.cache.Has(e.key) })
		if err := compactJournal(cfg.JournalDir, st, time.Now()); err != nil {
			return nil, fmt.Errorf("serve: journal compact: %w", err)
		}
		jl, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, fmt.Errorf("serve: journal open: %w", err)
		}
		jl.met = &s.met
		s.journal = jl
		if st.truncated {
			s.met.journalErrors.Add(1)
		}
		for _, e := range st.pending {
			j := newJob(e.key, *e.req, time.Now())
			j.tenant = canonicalTenant(cmp.Or(e.tenant, e.req.Tenant))
			// Interrupted jobs resume from their journaled checkpoints; a
			// pending job without any (checkpointing off, or killed before
			// the first emission) re-runs from cycle 0 as before.
			j.resume = e.ckpts
			// The original submission's trace died with the old process;
			// start a fresh one so the re-run is still correlatable.
			j.trace = obsv.NewTrace()
			if len(e.ckpts) > 0 {
				s.met.journalReplayedResumed.Add(1)
			}
			recovered = append(recovered, j)
			s.met.journalReplayedRequeued.Add(1)
		}
		s.logger.Info("journal replayed",
			"completed", len(st.completed), "requeued", len(st.pending), "truncated", st.truncated)
	}

	// Recovered jobs bypass the queue bounds rather than dropping journaled
	// work on the floor.
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.tenants.push(j)
		s.met.queued.Add(1)
	}

	s.reg = s.met.registry(func() int64 { return int64(s.cache.Len()) },
		func() int64 { return int64(s.brownoutStep()) }, s.spans)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Registry exposes the service metrics (for embedding in other exporters).
func (s *Server) Registry() *obsv.Registry { return s.reg }

// Start launches the worker pool.
func (s *Server) Start() {
	s.started = time.Now()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown stops accepting queued work and waits (up to ctx) for running
// jobs to finish; running simulations are cancelled cooperatively. This is
// the abrupt path — Drain is the graceful one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		_ = s.journal.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain winds the service down gracefully: stop admitting submissions
// (503 + Retry-After), let in-flight jobs finish within ctx — cancelling
// them cooperatively once it expires — journal their final states, and
// return. Queued-but-unstarted jobs stay journaled as pending, so a
// journal-backed restart resumes them; in-flight jobs the budget forced us
// to cancel are preempted-and-journaled (a preempt record on top of their
// periodic checkpoint records), so the restart continues them from the last
// checkpoint instead of cycle 0. A drained server admits nothing further.
// Safe to call once; later calls (and calls after Shutdown) no-op.
func (s *Server) Drain(ctx context.Context) error {
	if !s.state.CompareAndSwap(stateServing, stateDraining) {
		return nil
	}
	start := time.Now()
	s.met.drains.Add(1)
	s.logger.Info("drain started", "running", s.met.running.Load(), "queued", s.met.queued.Load())
	close(s.draining)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Budget exhausted: cancel in-flight simulations cooperatively and
		// wait for the workers to journal their terminal states.
		s.cancel()
		<-done
		err = ctx.Err()
	}
	s.met.drainMS.Store(time.Since(start).Milliseconds())
	s.logger.Info("drain finished",
		"duration_ms", time.Since(start).Milliseconds(), "cancelled", err != nil)
	_ = s.journal.Close()
	return err
}

// worker drains the fair queue until the server shuts down or drains
// (tenantTable.pop checks shutdown/drain before dequeuing, so a worker never
// picks up new queued work once draining has begun, even if both are ready).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.tenants.pop(s.ctx, s.draining)
		if !ok {
			return
		}
		s.met.queued.Add(-1)
		s.runJob(j)
	}
}

// observeService folds one successful job's duration into the EWMA that
// admission control and Retry-After hints are derived from.
func (s *Server) observeService(d time.Duration) {
	old := s.met.serviceNanos.Load()
	if old == 0 {
		s.met.serviceNanos.Store(int64(d))
		return
	}
	s.met.serviceNanos.Store((old*4 + int64(d)) / 5)
}

// estimatedWait predicts how long a new submission would sit in the queue.
func (s *Server) estimatedWait() time.Duration {
	svc := time.Duration(s.met.serviceNanos.Load())
	depth := s.met.queued.Load()
	if svc <= 0 || depth <= 0 {
		return 0
	}
	return svc * time.Duration(depth) / time.Duration(s.cfg.Workers)
}

// retryAfterHint is the Retry-After a refused client gets: the observed
// service time, floored at one second.
func (s *Server) retryAfterHint() time.Duration {
	if svc := time.Duration(s.met.serviceNanos.Load()); svc > time.Second {
		return svc
	}
	return time.Second
}

// Multi-tenant request headers, honoured by srvd and propagated by srvgw.
const (
	// HeaderTenant names the submitting principal; it overrides the request
	// body's tenant field. Absent/empty is the default tenant.
	HeaderTenant = "X-Srv-Tenant"
	// HeaderDeadlineMS is the caller's remaining deadline in milliseconds
	// (relative, so fleet nodes need no clock agreement). Work that cannot
	// finish inside it is refused or cancelled instead of simulated into a
	// void.
	HeaderDeadlineMS = "X-Srv-Deadline-Ms"
	// HeaderRetryBudget is how many more times the caller is willing to have
	// this request retried or handed off downstream; the gateway caps its
	// hand-off walk at this budget so client retries cannot multiply into a
	// hand-off storm.
	HeaderRetryBudget = "X-Srv-Retry-Budget"
)

// BrownoutNames are the brownout step names, indexed by step (a node's
// brownoutStep, a gateway's fleet aggregate). Step 0 (serving normally)
// renders as the empty string so healthz payloads without brownout configured
// are byte-identical to the seed.
var BrownoutNames = [...]string{"", "shed-low", "no-new-work", "cached-only"}

// brownoutStep grades overload against Config.BrownoutHighWater: 0 below the
// mark, 1 above it (shed tenants below the max configured weight), 2 above
// 2× (refuse all non-cached work), 3 above 4× (cached reads only).
func (s *Server) brownoutStep() int {
	hw := s.cfg.BrownoutHighWater
	if hw <= 0 {
		return 0
	}
	est := s.estimatedWait()
	switch {
	case est > 4*hw:
		return 3
	case est > 2*hw:
		return 2
	case est > hw:
		return 1
	}
	return 0
}

// runJob executes one job under the configured timeout and ends it (end)
// on every path out.
func (s *Server) runJob(j *job) {
	s.met.running.Add(1)
	defer s.met.running.Add(-1)
	start := time.Now()

	// A job whose caller-supplied deadline has already passed ends here,
	// before execution: simulating it would burn a worker on a result nobody
	// is waiting for.
	deadline, ok := j.claim(start)
	if !ok {
		s.end(j, jobEnd{outcome: outcomeExpired, err: "deadline expired before execution", code: CodeTimeout})
		return
	}

	// Queue-wait stage: submission → worker pickup, as a span and in the
	// SLO histogram.
	s.met.queueWaitMS.Observe(start.Sub(j.submitted).Milliseconds())
	s.stageSpan(j.trace.Trace, j.trace.Span, "queue-wait", j.submitted, start,
		map[string]string{"job": j.id})
	exec := j.trace.Child().Span
	s.jobLogger(j).Info("job started", "bench", j.req.Bench, "mode", string(j.req.Mode),
		"queue_wait_ms", start.Sub(j.submitted).Milliseconds())

	ctx := s.ctx
	cancel := func() {}
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	defer cancel()
	if !deadline.IsZero() {
		// The caller's deadline bounds execution too: a job that outlives it
		// is cancelled cooperatively and fails 504, like a timeout.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
	}
	// Each progress event doubles as a zero-duration child span of the
	// execute stage, so the harness's per-loop milestones line up under the
	// request trace.
	ctx = harness.WithProgress(ctx, func(ev harness.ProgressEvent) {
		j.appendEvent(ev)
		now := time.Now()
		s.stageSpan(j.trace.Trace, exec, "progress:"+ev.Stage, now, now, map[string]string{
			"done":  strconv.Itoa(ev.Done),
			"total": strconv.Itoa(ev.Total),
		})
	})
	if s.journal != nil && s.cfg.CheckpointEvery > 0 {
		ctx = harness.WithCheckpoints(ctx, s.cfg.CheckpointEvery, func(rc harness.RunCheckpoint) {
			s.met.checkpointsJournaled.Add(1)
			s.journal.append(journalRecord{Op: opCkpt, Key: j.id, At: time.Now(), Checkpoint: &rc})
		})
	}
	if len(j.resume) > 0 {
		ctx = harness.WithResume(ctx, j.resume)
	}

	run := harness.Run
	if s.cfg.Harness != nil {
		run = s.cfg.Harness.Run
	}
	res, err := run(ctx, j.req)
	if err == nil {
		data, merr := json.Marshal(res)
		if merr != nil {
			s.end(j, jobEnd{outcome: outcomeFailed, exec: exec,
				err: fmt.Sprintf("marshalling result: %v", merr), code: CodeSimFailed})
			return
		}
		s.end(j, jobEnd{outcome: outcomeDone, exec: exec, result: data})
		return
	}
	se := harness.AsSimError(err)
	fr := se.Record()
	e := jobEnd{outcome: outcomeFailed, exec: exec, failure: &fr, err: se.Error(), code: failCodeFor(err, ctx)}
	// A job cancelled because the server itself is going down (drain budget
	// exhausted, Shutdown) was preempted, not failed: its journal record
	// keeps it pending, with its checkpoints, so the next process resumes it
	// instead of marking the key terminally failed.
	if s.ctx.Err() != nil {
		e.outcome = outcomePreempted
	}
	s.end(j, e)
}

// Outcomes of a job. A job that ran ends done, failed or preempted, and its
// execute span carries the outcome; an expired one never ran.
const (
	outcomeDone      = "done"
	outcomeFailed    = "failed"
	outcomePreempted = "preempted" // cancelled by drain or shutdown: resumable
	outcomeExpired   = "expired"   // its deadline passed while it was queued
)

// jobEnd is how one job ends: its outcome, and what its waiters are handed.
type jobEnd struct {
	outcome string
	exec    obsv.SpanID            // the execute span of a job that ran; zero otherwise
	result  json.RawMessage        // done: the marshalled harness.Result
	failure *harness.FailureRecord // the harness's typed failure, if there is one
	err     string                 // every outcome but done
	code    ErrorCode              // the envelope code a ?wait=1 caller gets
}

// end is the one terminal transition of a job. It journals the terminal
// record first, so a job anyone is told has finished is already durable, and
// a resubmission of its key, which joins the job until it turns terminal,
// cannot journal a submit ahead of that record. Then it caches a result,
// records the execute span, latency, counters and log line, and returns the
// tenant's byte charge, so a caller that sees the job terminal sees all of
// it. Last it turns the job terminal, waking its waiters and streamers.
func (s *Server) end(j *job, e jobEnd) {
	op := opFail
	switch e.outcome {
	case outcomeDone:
		op = opDone
	case outcomePreempted:
		op = opPreempt
	}
	ran := !e.exec.IsZero()
	js := time.Now()
	s.journal.append(journalRecord{Op: op, Key: j.id, At: js, Result: e.result, Error: e.err})
	if ran && s.journal != nil {
		s.stageSpan(j.trace.Trace, e.exec, "journal-append", js, time.Now(),
			map[string]string{"op": string(op)})
	}
	if e.outcome == outcomeDone {
		s.cache.Put(j.id, e.result)
	}

	now := time.Now()
	if ran {
		s.spans.Record(obsv.Span{
			Trace: j.trace.Trace, ID: e.exec, Parent: j.trace.Span,
			Name: "execute", Start: j.started, End: now,
			Attrs: map[string]string{"job": j.id, "cache_key": j.id, "outcome": e.outcome},
		})
	}
	s.met.e2eMS.Observe(now.Sub(j.submitted).Milliseconds())
	lg := s.jobLogger(j)
	ms := now.Sub(j.started).Milliseconds()
	switch e.outcome {
	case outcomeDone:
		s.met.jobsDone.Add(1)
		s.observeService(now.Sub(j.started))
		lg.Info("job done", "duration_ms", ms, "result_bytes", len(e.result))
	case outcomeFailed:
		s.met.jobsFailed.Add(1)
		lg.Warn("job failed", "err", e.err, "duration_ms", ms)
	case outcomePreempted:
		s.met.jobsFailed.Add(1)
		s.met.jobsPreempted.Add(1)
		lg.Info("job preempted", "err", e.err, "duration_ms", ms)
	case outcomeExpired:
		s.met.jobsExpired.Add(1)
		lg.Warn("job expired in queue", "queue_wait_ms", now.Sub(j.submitted).Milliseconds())
	}
	s.tenants.release(j)
	j.finish(e, now)
}

// failCodeFor maps a failed job to the envelope code a synchronous waiter
// sees: compile errors are the client's fault (compile_rejected, 422),
// cancellation means the job timed out or the server is draining (timeout,
// 504), everything else is a plain simulation failure (sim_failed, 500).
func failCodeFor(err error, ctx context.Context) ErrorCode {
	if errors.Is(err, pipeline.ErrCancelled) || ctx.Err() != nil {
		return CodeTimeout
	}
	if se := harness.AsSimError(err); se.Kind == harness.KindCompileError {
		return CodeCompileRejected
	}
	return CodeSimFailed
}

// Handler returns the /v1 API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sims", s.handleSubmit)
	mux.HandleFunc("GET /v1/sims/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sims/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", MetricsHandler(s.reg))
	mux.HandleFunc("GET /v1/trace", TraceHandler(s.spans))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// jobStatus snapshots a job for the wire, stamped with this node's identity.
func (s *Server) jobStatus(j *job) JobStatus {
	st := j.status()
	st.Node = s.cfg.NodeID
	return st
}

// ParseDeadlineMS reads the X-Srv-Deadline-Ms header (relative milliseconds
// remaining), for nodes and the gateway alike. ok=false means absent or
// unparseable — unparseable values are ignored rather than refused, since a
// deadline is advisory metadata.
func ParseDeadlineMS(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// ReadBody reads a request body of at most limit bytes (limit <= 0: no
// bound) for the node and the gateway alike. Past the limit it fails with
// the *http.MaxBytesError http.MaxBytesReader reports. The buffer is sized
// from Content-Length when that is known and within the limit, so a body
// arrives in one allocation rather than a doubling series from 512 bytes.
// The header only sizes the first allocation up to 64 KiB: a client that
// claims a large body must send it before the buffer grows to hold it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	const maxPresize = 64 << 10
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	size := int64(512)
	if n := r.ContentLength; n >= 0 && (limit <= 0 || n <= limit) {
		// One spare byte, so the read that meets EOF needs no growth.
		size = min(n, maxPresize) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleSubmit admits one harness.Request under its CacheKey, which is also
// the job ID: cache hits complete immediately with the byte-identical cached
// Result (always, even under brownout), a key with a live job joins it
// (single flight), and other misses are queued (202) unless the server is
// draining (503), the body
// blows the size guard (413), the tenant is over a quota or the brownout
// step refuses it (429), the caller's deadline cannot be met (504), the
// predicted queue wait exceeds the deadline (429), or the queue — total or
// the tenant's share of it — is full (429). ?wait=1 turns the call
// synchronous: it blocks until the job finishes and maps failures onto HTTP
// statuses.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	// Adopt the caller's trace (W3C traceparent) or start a fresh one for
	// bare submissions; either way the whole admission decision is one span,
	// recorded with its outcome on every exit path.
	parent, propagated := obsv.ParseTraceparent(r.Header.Get(obsv.HeaderTraceparent))
	if !propagated {
		parent = obsv.NewTrace()
	}
	adm := parent.Child()
	admitted := func(outcome, key string) {
		attrs := map[string]string{"outcome": outcome}
		if key != "" {
			attrs["job"] = key
			attrs["cache_key"] = key
		}
		s.spans.Record(obsv.Span{
			Trace: parent.Trace, ID: adm.Span, Parent: parent.Span,
			Name: "admission", Start: arrived, End: time.Now(), Attrs: attrs,
		})
	}
	refused := func(outcome, detail string) {
		admitted(outcome, "")
		s.logger.Warn("submission refused",
			"trace_id", parent.Trace.String(), "reason", outcome, "detail", detail)
	}

	if s.state.Load() != stateServing {
		s.met.rejectedDraining.Add(1)
		refused("draining", "")
		WriteErrorRetry(w, CodeDraining, s.retryAfterHint(), "draining: not accepting new jobs")
		return
	}
	body, err := ReadBody(w, r, s.cfg.MaxInflightBytes)
	var req harness.Request
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.shedOversize.Add(1)
			refused("oversize", err.Error())
			WriteError(w, CodeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		s.met.invalid.Add(1)
		refused("invalid", err.Error())
		WriteError(w, CodeInvalidRequest, "decoding request: %v", err)
		return
	}
	bodyBytes := int64(len(body))
	// Tenant identity: the header overrides the body's tenant field, the
	// name "default" is the default tenant, and the resolved identity rides
	// the canonical request into the journal so a crash-recovered job
	// re-enqueues on the right subqueue.
	tenant := req.Tenant
	if h := r.Header.Get(HeaderTenant); h != "" {
		tenant = h
	}
	tenant = canonicalTenant(tenant)
	req.Tenant = tenant
	if !validTenant(tenant) {
		s.met.invalid.Add(1)
		refused("invalid", "tenant")
		WriteError(w, CodeInvalidRequest, "invalid tenant %q: want 1 to %d characters from [A-Za-z0-9._-]",
			tenant, maxTenantLen)
		return
	}

	// Submission-rate quota, before any hashing work: a tenant over its rate
	// is refused with the honest time until its bucket next holds a token.
	if ok, wait := s.tenants.rate(tenant); !ok {
		s.met.shedQuota.Add(1)
		refused("quota-rate", tenant)
		WriteErrorRetry(w, CodeOverCapacity, wait,
			"tenant %q over submission rate quota", tenantName(tenant))
		return
	}

	creq, err := req.Canonical()
	if err != nil {
		s.met.invalid.Add(1)
		refused("invalid", err.Error())
		WriteError(w, CodeInvalidRequest, "%v", err)
		return
	}
	key, err := creq.CacheKey()
	if err != nil {
		refused("hash-error", err.Error())
		WriteError(w, CodeInternal, "hashing request: %v", err)
		return
	}

	deadlineIn, hasDeadline := ParseDeadlineMS(r.Header.Get(HeaderDeadlineMS))
	var deadline time.Time
	if hasDeadline {
		deadline = arrived.Add(deadlineIn)
	}

	lookupStart := time.Now()
	data, hit := s.cache.Get(key)
	s.stageSpan(parent.Trace, adm.Span, "cache-lookup", lookupStart, time.Now(),
		map[string]string{"hit": strconv.FormatBool(hit), "cache_key": key})
	if hit {
		// A hit is answered from the cache alone: no job record is kept.
		s.met.cacheHits.Add(1)
		s.met.e2eMS.Observe(time.Since(arrived).Milliseconds())
		admitted("cache-hit", key)
		if s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.Info("job served from cache", "trace_id", parent.Trace.String(), "job", key, "cache_key", key)
		}
		var modeBench [128]byte
		WriteCachedStatus(w, CachedReply{
			Key: key, ModeBench: AppendModeBench(modeBench[:0], creq.Mode, creq.Bench),
			Trace: parent.Trace, Node: s.cfg.NodeID, Tenant: tenant, Result: data,
		}, time.Now())
		return
	}
	s.met.cacheMisses.Add(1)

	// A deadline the queue alone would already blow is refused up front: no
	// retry will help unless the caller extends the deadline, so this is a
	// timeout, not an over-capacity refusal.
	if hasDeadline && deadlineIn <= 0 {
		s.met.jobsExpired.Add(1)
		refused("deadline-expired", "")
		WriteError(w, CodeTimeout, "deadline already expired on arrival")
		return
	}

	// Single flight: a live job for this key takes the submission.
	s.mu.RLock()
	j := s.jobs[key]
	s.mu.RUnlock()
	if j != nil && j.live() {
		s.coalesce(w, r, j, deadline, admitted)
		return
	}

	if hasDeadline {
		if est := s.estimatedWait(); est > deadlineIn {
			s.met.jobsExpired.Add(1)
			refused("deadline-infeasible", est.String())
			WriteError(w, CodeTimeout,
				"predicted queue wait %s exceeds remaining deadline %s",
				est.Round(time.Millisecond), deadlineIn)
			return
		}
	}

	// Brownout: degrade non-cached work in steps (cache hits were already
	// served above, at any step). Step 1 sheds tenants below the maximum
	// configured weight; step 2+ refuses all fresh work.
	if step := s.brownoutStep(); step > 0 {
		shed := step >= 2 || s.tenants.lowWeight(tenant)
		if shed {
			s.met.shedBrownout.Add(1)
			refused("brownout", BrownoutNames[step])
			WriteErrorRetry(w, CodeOverCapacity, s.retryAfterHint(),
				"brownout (%s): refusing non-cached work", BrownoutNames[step])
			return
		}
	}

	// Admission control: shed jobs that would out-wait the deadline instead
	// of letting them rot in the queue. The Retry-After is the prediction
	// itself — when the backlog has cleared, so has the reason to shed.
	if d := s.cfg.QueueDeadline; d > 0 {
		if est := s.estimatedWait(); est > d {
			s.met.shedDeadline.Add(1)
			refused("shed-deadline", est.String())
			WriteErrorRetry(w, CodeOverCapacity, est,
				"predicted queue wait %s exceeds deadline %s", est.Round(time.Millisecond), d)
			return
		}
	}

	j = newJob(key, creq, time.Now())
	j.tenant = tenant
	j.bodyBytes = bodyBytes
	j.deadline = deadline
	// Worker-side stage spans parent to the admission span.
	j.trace = obsv.SpanContext{Trace: parent.Trace, Span: adm.Span}

	// The record check, the quota and queue checks, the journal and the push
	// move together under s.mu, so two racing creators of one key queue and
	// charge it once, and a check holds until its push. A refused submission
	// leaves no trace: no job, no journal record. The submit record is
	// journaled before a worker can see the job, so the journal's per-key
	// record order always starts with submit.
	s.mu.Lock()
	if live := s.jobs[key]; live != nil && live.live() {
		s.mu.Unlock()
		s.coalesce(w, r, live, deadline, admitted)
		return
	}
	if err = s.tenants.check(tenant, bodyBytes); err == nil {
		s.journal.append(journalRecord{Op: opSubmit, Key: key, At: time.Now(), Req: &creq, Tenant: tenant})
		s.tenants.push(j)
		s.jobs[key] = j
	}
	s.mu.Unlock()

	switch err {
	case nil:
		s.met.queued.Add(1)
		s.met.submitted.Add(1)
		admitted("queued", key)
		s.jobLogger(j).Info("job admitted", "bench", creq.Bench, "mode", string(creq.Mode),
			"propagated", propagated)
	case errBytesQuota:
		s.met.shedQuota.Add(1)
		refused("quota-bytes", tenant)
		WriteErrorRetry(w, CodeOverCapacity, s.retryAfterHint(),
			"tenant %q over in-flight bytes quota", tenantName(tenant))
		return
	case errTenantFull:
		s.met.shedTenantFull.Add(1)
		refused("tenant-queue-full", tenant)
		WriteErrorRetry(w, CodeOverCapacity, s.retryAfterHint(),
			"tenant %q queue full (%d jobs waiting)", tenantName(tenant), s.tenants.depth(tenant))
		return
	default:
		s.met.rejectedFull.Add(1)
		refused("queue-full", "")
		WriteErrorRetry(w, CodeOverCapacity, s.retryAfterHint(), "queue full (%d jobs waiting)", s.cfg.QueueSize)
		return
	}
	s.replyJob(w, r, j)
}

// coalesce hands a submission to the live job of its key (single flight): it
// takes no queue slot, byte charge or journal record, and lifts a queued
// job's deadline to the latest among its submitters.
func (s *Server) coalesce(w http.ResponseWriter, r *http.Request, j *job, deadline time.Time, admitted func(outcome, key string)) {
	j.join(deadline)
	s.met.coalesced.Add(1)
	admitted("coalesced", j.id)
	s.jobLogger(j).Info("submission joined live job")
	s.replyJob(w, r, j)
}

// replyJob answers a submission with its job's status: at once (202), or
// with ?wait=1 once the job is terminal, mapping a failure onto its HTTP
// status.
func (s *Server) replyJob(w http.ResponseWriter, r *http.Request, j *job) {
	if wait := r.URL.Query().Get("wait"); wait != "1" && wait != "true" {
		WriteJSON(w, http.StatusAccepted, s.jobStatus(j))
		return
	}
	if err := j.wait(r.Context()); err != nil {
		WriteError(w, CodeTimeout, "waiting for %s: %v", j.id, err)
		return
	}
	st := s.jobStatus(j)
	if st.State == StateFailed {
		writeFailedJob(w, j.ended.code, st)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// statusOf resolves a job ID (a CacheKey) to its record or, for a key the
// result cache answers without one, a done status. It writes the not_found
// envelope and reports false for an unknown ID.
func (s *Server) statusOf(w http.ResponseWriter, id string) (*job, JobStatus, bool) {
	s.mu.RLock()
	j := s.jobs[id]
	s.mu.RUnlock()
	if j != nil {
		return j, s.jobStatus(j), true
	}
	if data, hit := s.cache.Get(id); hit {
		st := CachedStatus(id, data, time.Now())
		st.Node = s.cfg.NodeID
		return nil, st, true
	}
	WriteError(w, CodeNotFound, "unknown job %q", id)
	return nil, JobStatus{}, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, st, ok := s.statusOf(w, r.PathValue("id"))
	switch {
	case !ok:
	case j == nil: // answered from the cache
		WriteCachedStatus(w, CachedReply{Key: st.ID, Node: st.Node, Result: st.Result}, st.SubmittedAt)
	default:
		WriteJSON(w, http.StatusOK, st)
	}
}

// handleStream tails the job as NDJSON: one line per progress event (the
// full history replays for late subscribers), then the terminal JobStatus.
// A key answered from the cache streams its done status alone.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, st, ok := s.statusOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	// The deepest brownout step (cached-only) sheds long-lived progress
	// streams of non-terminal jobs — they hold connections open while the
	// server is fighting for headroom. Terminal jobs still stream: that's a
	// single bounded read, no cheaper than a status poll.
	if s.brownoutStep() >= 3 && !st.State.terminal() {
		s.met.shedBrownout.Add(1)
		WriteErrorRetry(w, CodeOverCapacity, s.retryAfterHint(),
			"brownout (cached-only): progress streaming suspended; poll GET /v1/sims/%s", st.ID)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; j != nil; i++ {
		ev, ok := j.next(i)
		if !ok {
			st = s.jobStatus(j)
			break
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(st)
	if flusher != nil {
		flusher.Flush()
	}
}

// Health is the /v1/healthz payload. All fields are additive-only: a fleet
// gateway (cmd/srvgw) schedules on the per-node load signals, so removing or
// renaming one is a breaking API change (pinned by the golden payload test).
type Health struct {
	Status string `json:"status"`
	// State is "serving" while submissions are admitted and "draining" once
	// Drain has begun — the readiness signal a load balancer should rotate
	// on (liveness stays "ok" throughout the drain).
	State         string  `json:"state"`
	SchemaVersion int     `json:"schema_version"`
	CodeVersion   string  `json:"code_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int64   `json:"queue_depth"`
	CacheEntries  int     `json:"cache_entries"`

	// Fleet-scheduling fields (additive, PR 9). Node is Config.NodeID;
	// PredictedWaitMS is the admission-control estimate a new submission
	// would queue for (service-time EWMA × depth ÷ workers) — the signal the
	// gateway's work-stealing compares against its threshold; JournalLag is
	// the number of journal records appended since the startup compaction, a
	// proxy for how much replay work a crash-restart of this node would do
	// (0 without a journal).
	Node            string  `json:"node,omitempty"`
	PredictedWaitMS float64 `json:"predicted_wait_ms"`
	JournalLag      int64   `json:"journal_lag"`

	// Multi-tenant overload state (additive, PR 10). Brownout is the current
	// degradation step name ("" serving normally, then "shed-low" →
	// "no-new-work" → "cached-only"); Tenants lists per-tenant queue depth,
	// weight and in-flight bytes, sorted by tenant name: one row per tenant
	// holding queued jobs, in-flight bytes or a partly spent rate bucket
	// (absent when none does).
	Brownout string           `json:"brownout,omitempty"`
	Tenants  []TenantSnapshot `json:"tenants,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.state.Load() != stateServing {
		state = "draining"
	}
	WriteJSON(w, http.StatusOK, Health{
		Status:          "ok",
		State:           state,
		SchemaVersion:   harness.SchemaVersion,
		CodeVersion:     harness.CodeVersion,
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Workers:         s.cfg.Workers,
		QueueDepth:      s.met.queued.Load(),
		CacheEntries:    s.cache.Len(),
		Node:            s.cfg.NodeID,
		PredictedWaitMS: float64(s.estimatedWait().Nanoseconds()) / 1e6,
		JournalLag:      s.met.journalRecords.Load(),
		Brownout:        BrownoutNames[s.brownoutStep()],
		Tenants:         s.tenants.snapshot(),
	})
}

// MetricsHandler serves GET /v1/metrics for a node or the gateway: reg as
// JSON by default, Prometheus text exposition with ?format=prometheus (the
// scrape target for a fleet).
func MetricsHandler(reg *obsv.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", obsv.PromContentType)
			_ = reg.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	}
}
