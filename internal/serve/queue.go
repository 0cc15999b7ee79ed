package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
)

// JobState is the lifecycle of one submitted simulation.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool { return s == StateDone || s == StateFailed }

// JobStatus is the wire form of one job, returned by GET /v1/sims/{id} and
// as the terminal line of the NDJSON stream. Result holds the marshalled
// harness.Result verbatim (the exact bytes a cache hit replays), so clients
// comparing results across submissions can compare bytes.
type JobStatus struct {
	// ID is the request's CacheKey: every submission of one request names
	// the same job, on every node and at the gateway, across restarts.
	ID       string       `json:"id"`
	State    JobState     `json:"state"`
	Mode     harness.Mode `json:"mode"`
	Bench    string       `json:"bench,omitempty"`
	CacheKey string       `json:"cache_key"`
	Cached   bool         `json:"cached,omitempty"`
	// TraceID correlates the job with its spans (GET /v1/trace) and with the
	// daemon's structured log lines.
	TraceID string `json:"trace_id,omitempty"`
	// Node names the fleet node that owns the job (serve.Config.NodeID), so
	// users can see where a job ran. The srvgw gateway passes it through
	// unchanged, and names itself (its own NodeID) only on its cache hits.
	// Additive: empty on standalone daemons.
	Node string `json:"node,omitempty"`
	// Tenant is the principal the job was submitted on behalf of (the
	// X-Srv-Tenant header, or harness.Request.Tenant). Additive: empty for
	// the default tenant, so seed-era payloads are byte-identical.
	Tenant string `json:"tenant,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Progress is the latest progress event of a running benchmark job.
	Progress *harness.ProgressEvent `json:"progress,omitempty"`

	Result  json.RawMessage        `json:"result,omitempty"`
	Failure *harness.FailureRecord `json:"failure,omitempty"`
	Error   string                 `json:"error,omitempty"`
}

// job is one simulation, shared by every submission of its request. All
// mutable state is guarded by mu; done is closed exactly once on entering a
// terminal state, and cond broadcasts on every event append so streamers can
// tail the event log without polling.
type job struct {
	// id is the request's CacheKey: one live job per content address.
	id  string
	req harness.Request // canonical form
	// tenant keys the fair queue's subqueue, the quota accounting and the
	// brownout shedding decision. Empty is the default tenant. Set once by
	// the creating submission (or journal replay), never mutated after.
	tenant string
	// bodyBytes is the creating submission's body size, charged against the
	// tenant's in-flight-bytes quota until the job reaches a terminal state.
	bodyBytes int64
	// resume holds the journal-replayed machine checkpoints of an
	// interrupted job (one per loop simulation that had emitted any), handed
	// to harness.WithResume when the job runs. Set once before the job is
	// queued, never mutated after.
	resume []harness.RunCheckpoint
	// trace is the job's trace ID plus the admission span every worker-side
	// stage span parents to. Set once before the job is visible to workers
	// (handleSubmit, or journal replay in New), never mutated after.
	trace obsv.SpanContext

	mu   sync.Mutex
	cond *sync.Cond
	// deadline is the absolute point after which the job's result is useless
	// to its callers (propagated via X-Srv-Deadline-Ms). Zero means none.
	// Joiners may lift it until a worker claims the job (join); a worker that
	// claims an already-expired job fails it without simulating into the void.
	deadline time.Time
	claimed  bool // a worker has taken the job: its deadline is final
	// events is an append-only log of progress events; streamers hold a
	// cursor into it, so late subscribers replay the full history.
	events []harness.ProgressEvent
	state  JobState
	// ended is set with the terminal state and never changed after, so a
	// caller past wait reads it without mu.
	ended     jobEnd
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

func newJob(key string, req harness.Request, now time.Time) *job {
	j := &job{id: key, req: req, state: StateQueued, submitted: now, done: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// live reports whether the job is queued or running, so a new submission of
// its key joins it instead of creating another.
func (j *job) live() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.state.terminal()
}

// join folds a coalesced submitter's deadline into a queued job: the latest
// deadline wins, and no deadline (zero) beats any. A job a worker has
// claimed keeps the deadline it was claimed with.
func (j *job) join(deadline time.Time) {
	j.mu.Lock()
	if !j.claimed && !j.deadline.IsZero() && (deadline.IsZero() || deadline.After(j.deadline)) {
		j.deadline = deadline
	}
	j.mu.Unlock()
}

// claim takes a queued job for a worker, fixing its deadline, and moves it to
// running. A job whose deadline has already passed stays queued, and claim
// reports false: the worker must end it without running it.
func (j *job) claim(now time.Time) (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.claimed = true
	if !j.deadline.IsZero() && now.After(j.deadline) {
		return j.deadline, false
	}
	j.state = StateRunning
	j.started = now
	j.cond.Broadcast()
	return j.deadline, true
}

// appendEvent records one progress event (called concurrently from
// simulation workers via harness.WithProgress).
func (j *job) appendEvent(ev harness.ProgressEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish moves the job to its terminal state, done or failed as e says, and
// wakes its waiters and streamers. Server.end is its only caller.
func (j *job) finish(e jobEnd, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	if e.outcome == outcomeDone {
		j.state = StateDone
	}
	j.ended, j.finished = e, now
	close(j.done)
	j.cond.Broadcast()
}

// CachedStatus is the done status of key answered from a result cache, with
// no job record behind it. Callers stamp what they know of the request
// (mode, bench, trace, node).
func CachedStatus(key string, result json.RawMessage, now time.Time) JobStatus {
	return JobStatus{
		ID: key, State: StateDone, CacheKey: key, Cached: true,
		SubmittedAt: now, StartedAt: &now, FinishedAt: &now, Result: result,
	}
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Mode: j.req.Mode, Bench: j.req.Bench,
		CacheKey: j.id, SubmittedAt: j.submitted,
		Result: j.ended.result, Failure: j.ended.failure, Error: j.ended.err,
		Tenant: j.tenant,
	}
	if !j.trace.Trace.IsZero() {
		st.TraceID = j.trace.Trace.String()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if n := len(j.events); n > 0 && !j.state.terminal() {
		ev := j.events[n-1]
		st.Progress = &ev
	}
	return st
}

// wait blocks until the job reaches a terminal state or ctx is cancelled.
func (j *job) wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// next returns the event at cursor i, blocking until it exists or the job is
// terminal (ok=false means no further events will arrive).
func (j *job) next(i int) (harness.ProgressEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i >= len(j.events) && !j.state.terminal() {
		j.cond.Wait()
	}
	if i < len(j.events) {
		return j.events[i], true
	}
	return harness.ProgressEvent{}, false
}
