package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srvsim/internal/harness"
)

// fastRetry keeps retry tests quick: immediate, bounded attempts.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestClientErrorTaxonomy pins the documented mapping from every daemon HTTP
// status to a client error: which statuses retry, which unwrap to sentinel
// errors, and that typed simulation failures round-trip as *harness.SimError
// through the retry wrapping.
func TestClientErrorTaxonomy(t *testing.T) {
	const attempts = 3
	env := func(code ErrorCode, msg string) errorEnvelope {
		return errorEnvelope{Error: APIError{Code: code, Message: msg}}
	}
	failedStatus := func() JobStatus {
		fr := (&harness.SimError{Kind: harness.KindRunError, Bench: "svc", Seed: 7, Msg: "replay storm"}).Record()
		return JobStatus{ID: "sim-000001", State: StateFailed, Failure: &fr, Error: "replay storm"}
	}
	wantSimError := func(t *testing.T, err error) {
		var se *harness.SimError
		if !errors.As(err, &se) {
			t.Fatalf("typed failure did not round-trip: %v", err)
		}
		if se.Kind != harness.KindRunError || se.Bench != "svc" || se.Msg != "replay storm" {
			t.Fatalf("SimError fields lost in transit: %+v", se)
		}
	}
	cases := []struct {
		name      string
		status    int
		body      interface{}
		wantCalls int64 // 1 = not retried, attempts = retried to exhaustion
		check     func(t *testing.T, err error)
	}{
		{"400", http.StatusBadRequest, env(CodeInvalidRequest, "decoding request: boom"), 1, func(t *testing.T, err error) {
			if !errors.Is(err, harness.ErrInvalidRequest) {
				t.Fatalf("400 does not unwrap to ErrInvalidRequest: %v", err)
			}
			if !strings.Contains(err.Error(), "invalid request") {
				t.Fatalf("400 error does not identify the invalid request: %v", err)
			}
		}},
		{"404", http.StatusNotFound, env(CodeNotFound, `unknown job "sim-000001"`), 1, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusNotFound {
				t.Fatalf("404 not surfaced as HTTPError: %v", err)
			}
			if he.Code != CodeNotFound {
				t.Fatalf("404 code = %q, want %q", he.Code, CodeNotFound)
			}
			if !strings.Contains(err.Error(), "404") {
				t.Fatalf("404 error does not carry the status: %v", err)
			}
		}},
		{"422", http.StatusUnprocessableEntity, env(CodeCompileRejected, "compile error"), 1, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
				t.Fatalf("422 not surfaced as HTTPError: %v", err)
			}
			if he.Code != CodeCompileRejected {
				t.Fatalf("422 code = %q, want %q", he.Code, CodeCompileRejected)
			}
		}},
		{"429", http.StatusTooManyRequests, env(CodeOverCapacity, "queue full (64 jobs waiting)"), attempts, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
				t.Fatalf("429 not surfaced as HTTPError: %v", err)
			}
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("429 error lost the server message: %v", err)
			}
		}},
		{"503", http.StatusServiceUnavailable, env(CodeDraining, "draining: not accepting new jobs"), attempts, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
				t.Fatalf("503 not surfaced as HTTPError: %v", err)
			}
			if he.Code != CodeDraining {
				t.Fatalf("503 code = %q, want %q", he.Code, CodeDraining)
			}
		}},
		{"504", http.StatusGatewayTimeout, env(CodeTimeout, "waiting for sim-000001: context deadline exceeded"), attempts, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusGatewayTimeout {
				t.Fatalf("504 not surfaced as HTTPError: %v", err)
			}
		}},
		{"500", http.StatusInternalServerError, env(CodeInternal, "hashing request: boom"), 1, func(t *testing.T, err error) {
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != http.StatusInternalServerError {
				t.Fatalf("500 not surfaced as HTTPError: %v", err)
			}
		}},
		// A failed job's typed failure round-trips inside the envelope's Job
		// field — even on a retryable status code, the SimError dominates and
		// is never retried.
		{"500-simerror", http.StatusInternalServerError, errorEnvelope{Error: APIError{
			Code: CodeSimFailed, Message: "job sim-000001 failed: replay storm",
			Job: func() *JobStatus { st := failedStatus(); return &st }(),
		}}, 1, wantSimError},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				WriteJSON(w, tc.status, tc.body)
			}))
			defer ts.Close()
			c := NewClient(ts.URL, WithRetry(fastRetry(attempts)))
			_, err := c.Submit(context.Background(), testLoopReq())
			if err == nil {
				t.Fatalf("status %d produced no error", tc.status)
			}
			tc.check(t, err)
			if got := calls.Load(); got != tc.wantCalls {
				t.Fatalf("status %d: %d attempts, want %d", tc.status, got, tc.wantCalls)
			}
		})
	}
}

// TestRetryRidesOutTransientFailures: a daemon that answers 503 twice (with
// Retry-After) and then recovers must look healthy to the resilient client.
func TestRetryRidesOutTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Retry-After floors to 1s (header resolution); delay() honours it.
			WriteErrorRetry(w, CodeDraining, time.Millisecond, "draining: not accepting new jobs")
			return
		}
		WriteJSON(w, http.StatusOK, Health{Status: "ok", State: "serving"})
	}))
	defer ts.Close()

	before := clientMet.retries.Load()
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}))
	// Neutralise the Retry-After floor for test speed: parseRetryAfter only
	// yields whole seconds, so strip it via a custom check instead — the
	// header above rounds up to 1s, which delay() must honour. Accept the
	// wait; bound the test with a context.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health after transient 503s: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3", got)
	}
	if d := clientMet.retries.Load() - before; d != 2 {
		t.Fatalf("retry counter advanced by %d, want 2", d)
	}
}

// TestBreakerLifecycle drives closed → open → half-open → closed directly.
func TestBreakerLifecycle(t *testing.T) {
	opens := clientMet.breakerOpens.Load()
	halfOpens := clientMet.breakerHalfOpens.Load()
	closes := clientMet.breakerCloses.Load()

	b := newBreaker(2, 50*time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	b.record(false)
	b.record(false) // threshold reached: opens
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}
	if d := clientMet.breakerOpens.Load() - opens; d != 1 {
		t.Fatalf("breaker_opens advanced by %d, want 1", d)
	}

	time.Sleep(60 * time.Millisecond) // past cooldown: half-open
	if err := b.allow(); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	if d := clientMet.breakerHalfOpens.Load() - halfOpens; d != 1 {
		t.Fatalf("breaker_half_opens advanced by %d, want 1", d)
	}

	b.record(true) // probe succeeded: closes
	if err := b.allow(); err != nil {
		t.Fatalf("re-closed breaker refused: %v", err)
	}
	if d := clientMet.breakerCloses.Load() - closes; d != 1 {
		t.Fatalf("breaker_closes advanced by %d, want 1", d)
	}

	// A failed probe re-opens immediately.
	b.record(false)
	b.record(false)
	time.Sleep(60 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	b.record(false)
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe did not re-open the breaker")
	}

	// nil breaker (disabled) always allows.
	var nb *breaker
	if err := nb.allow(); err != nil {
		t.Fatalf("disabled breaker refused: %v", err)
	}
	nb.record(false)
}

// TestBreakerOpensThroughClient: consecutive transport failures trip the
// breaker, after which attempts fail fast with ErrCircuitOpen.
func TestBreakerOpensThroughClient(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listens: every dial is a transport failure

	c := NewClient(ts.URL,
		WithRetry(RetryPolicy{MaxAttempts: 1}),
		WithBreaker(3, time.Minute))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		var te *transportError
		if _, err := c.Health(ctx); !errors.As(err, &te) {
			t.Fatalf("attempt %d: want transport error, got %v", i, err)
		}
	}
	if _, err := c.Health(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not open after 3 transport failures: %v", err)
	}
}

// TestResponseTooLarge: the client refuses to slurp an oversized body.
func TestResponseTooLarge(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":%q}`, strings.Repeat("x", 4096))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, WithMaxResponseBytes(256), WithRetry(RetryPolicy{MaxAttempts: 1}))
	if _, err := c.Health(context.Background()); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("want ErrResponseTooLarge, got %v", err)
	}
}

// TestChaosTransportDeterministic: the fault sequence is a pure function of
// (seed, call index, method, path) — same seed, same faults; different seed,
// different faults.
func TestChaosTransportDeterministic(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/sims", nil)
	a := &ChaosTransport{Seed: 42, P: 0.5}
	b := &ChaosTransport{Seed: 42, P: 0.5}
	other := &ChaosTransport{Seed: 43, P: 0.5}
	var faults, diff int
	for n := int64(1); n <= 200; n++ {
		fa, fb := a.faultFor(n, req), b.faultFor(n, req)
		if fa != fb {
			t.Fatalf("call %d: same seed disagreed (%d vs %d)", n, fa, fb)
		}
		if fa != netNone {
			faults++
		}
		if fa != other.faultFor(n, req) {
			diff++
		}
	}
	if faults == 0 || faults == 200 {
		t.Fatalf("P=0.5 injected %d/200 faults", faults)
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if (&ChaosTransport{Seed: 42, P: 0}).faultFor(1, req) != netNone {
		t.Fatal("P=0 injected a fault")
	}
}

// TestChaosRemoteBitIdentical is the resilience acceptance test: a fleet of
// concurrent remote submissions through a lossy, delaying, black-holing
// transport must complete and agree byte-for-byte with local execution.
func TestChaosRemoteBitIdentical(t *testing.T) {
	_, c := startServer(t, Config{})
	chaos := &ChaosTransport{
		Seed:  7,
		P:     0.4,
		Delay: time.Millisecond,
		Hang:  20 * time.Millisecond,
	}
	cc := NewClient(c.base,
		WithTransport(chaos),
		WithRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}),
		WithBreaker(0, 0)) // chaos drops are random-looking; do not trip on them
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reqs := make([]harness.Request, 6)
	for i := range reqs {
		reqs[i] = testLoopReq()
		reqs[i].Seed = int64(100 + i)
	}
	var wg sync.WaitGroup
	remote := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req harness.Request) {
			defer wg.Done()
			res, err := cc.Do(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			remote[i], _ = json.Marshal(res)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d through chaos: %v", i, err)
		}
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos transport injected nothing — the drill proved nothing")
	}
	for i, req := range reqs {
		local, err := harness.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if !bytes.Equal(remote[i], want) {
			t.Fatalf("request %d diverged through chaos:\n  %s\n  %s", i, remote[i], want)
		}
	}
	t.Logf("chaos: %d calls, %d faults injected", chaos.Calls(), chaos.Injected())
}

// TestGracefulDrain: Drain stops admission with 503 + Retry-After, finishes
// or leaves queued work journaled, reports state=draining, and the journal
// holds exactly one terminal record per completed key.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	s, c := startServer(t, Config{Workers: 1, JournalDir: dir})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One finished job, then three queued behind a slow-ish one.
	if _, err := c.Do(ctx, testLoopReq()); err != nil {
		t.Fatal(err)
	}
	queued := make([]harness.Request, 3)
	for i := range queued {
		queued[i] = testLoopReq()
		queued[i].Seed = int64(200 + i)
		queued[i].Loop.Shape.Trip = 1 << 12
		if _, err := c.Submit(ctx, queued[i]); err != nil {
			t.Fatal(err)
		}
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain within budget: %v", err)
	}
	if d := s.met.drains.Load(); d != 1 {
		t.Fatalf("drains = %d, want 1", d)
	}
	if ms := s.met.drainMS.Load(); ms < 0 {
		t.Fatalf("drain duration %dms", ms)
	}

	// Drained server refuses new work with 503 and advertises draining.
	nc := NewClient(c.base, WithRetry(RetryPolicy{MaxAttempts: 1}))
	_, err := nc.Submit(ctx, testLoopReq())
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("503 does not say draining: %v", err)
	}
	if he.RetryAfter < time.Second {
		t.Fatalf("503 carried no Retry-After: %+v", he)
	}
	if h, err := nc.Health(ctx); err != nil || h.State != "draining" {
		t.Fatalf("health during drain = %+v (%v)", h, err)
	}
	if n := s.met.rejectedDraining.Load(); n != 1 {
		t.Fatalf("rejected_draining = %d, want 1", n)
	}

	// Journal invariants: every key resolves to exactly one live state, done
	// keys carry result bytes, and completed+pending cover all submissions.
	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated {
		t.Fatal("graceful drain left a torn journal")
	}
	total := len(st.completed) + len(st.pending) + st.failed
	if total != 4 {
		t.Fatalf("journal resolves %d keys (done %d, pending %d, failed %d), want 4",
			total, len(st.completed), len(st.pending), st.failed)
	}
	if len(st.completed) < 1 {
		t.Fatal("the finished job is missing from the journal")
	}
	seen := map[string]bool{}
	for _, e := range st.completed {
		if len(e.result) == 0 {
			t.Fatalf("done key %s has no result bytes", e.key)
		}
		if seen[e.key] {
			t.Fatalf("key %s completed more than once", e.key)
		}
		seen[e.key] = true
	}
	for _, e := range st.pending {
		if seen[e.key] {
			t.Fatalf("key %s both completed and pending", e.key)
		}
		seen[e.key] = true
	}

	// A second drain and a late Shutdown are harmless no-ops.
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestQueueDeadlineShed: with an observed service time on record and a
// backlog, a submission whose predicted wait exceeds the deadline is shed
// with 429 and a Retry-After matching the prediction.
func TestQueueDeadlineShed(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Workers never start, so the queue holds whatever we put in it.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	ctx := context.Background()

	// Seed the EWMA as if jobs took 1s; one queued job predicts a 500ms wait.
	s.met.serviceNanos.Store(int64(time.Second))
	if _, err := c.Submit(ctx, testLoopReq()); err != nil {
		t.Fatalf("first submission should queue: %v", err)
	}
	shed := testLoopReq()
	shed.Seed = 999
	_, err = c.Submit(ctx, shed)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
		t.Fatalf("over-deadline submission not shed with 429: %v", err)
	}
	if !strings.Contains(err.Error(), "predicted queue wait") {
		t.Fatalf("shed error does not explain itself: %v", err)
	}
	// The client prefers the envelope's retry_after_ms, which carries the
	// exact 500ms prediction (the Retry-After header rounds up to 1s).
	if he.RetryAfter != 500*time.Millisecond {
		t.Fatalf("shed response retry hint = %s, want 500ms (the prediction)", he.RetryAfter)
	}
	if n := s.met.shedDeadline.Load(); n != 1 {
		t.Fatalf("shed_deadline = %d, want 1", n)
	}
	// The shed job must not linger in the job table.
	s.mu.RLock()
	n := len(s.jobs)
	s.mu.RUnlock()
	if n != 1 {
		t.Fatalf("%d jobs tracked after shed, want 1", n)
	}
}

// TestOversizeBodyIs413: the request-size guard sheds bloated submissions.
func TestOversizeBodyIs413(t *testing.T) {
	s, err := New(Config{MaxInflightBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))

	_, err = c.Submit(context.Background(), testLoopReq()) // marshals well past 64 bytes
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body not shed with 413: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds 64 bytes") {
		t.Fatalf("413 does not name the limit: %v", err)
	}
	if n := s.met.shedOversize.Load(); n != 1 {
		t.Fatalf("shed_oversize = %d, want 1", n)
	}
}

// TestClientRetryDisciplines pins the two retry rules over the one exchange:
// RoundTrip retries transport failures only and hands back any reply
// verbatim, while the typed calls also back off on 429/503/504 and on an
// open circuit, never sooner than the server's retry hint.
func TestClientRetryDisciplines(t *testing.T) {
	const attempts = 3
	drop := func(w http.ResponseWriter) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}
	draining := func(w http.ResponseWriter) {
		WriteErrorRetry(w, CodeDraining, time.Millisecond, "draining: not accepting new jobs")
	}
	roundTrip := func(ctx context.Context, c *Client) (*APIResponse, error) {
		return c.RoundTrip(ctx, http.MethodPost, "/v1/sims", nil, []byte(`{}`), 0)
	}
	cases := []struct {
		name string
		// reply answers the server's nth call (1-based).
		reply       func(w http.ResponseWriter, n int64)
		opts        []ClientOption
		openBreaker bool
		// call makes the client call and checks its outcome; gaps are the
		// times between consecutive server calls.
		call        func(t *testing.T, ctx context.Context, c *Client, start time.Time)
		wantCalls   int64
		wantRetries int64 // -1: at least one
		gaps        func(t *testing.T, gaps []time.Duration)
	}{
		{
			name:  "roundtrip-503-verbatim",
			reply: func(w http.ResponseWriter, n int64) { draining(w) },
			call: func(t *testing.T, ctx context.Context, c *Client, _ time.Time) {
				resp, err := roundTrip(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				want := httptest.NewRecorder()
				draining(want)
				if resp.Status != http.StatusServiceUnavailable || !bytes.Equal(resp.Body, want.Body.Bytes()) ||
					resp.Header.Get("Retry-After") != "1" {
					t.Fatalf("got HTTP %d %s, want the 503 draining envelope untouched", resp.Status, resp.Body)
				}
			},
			wantCalls: 1,
		},
		{
			name: "roundtrip-500-verbatim",
			reply: func(w http.ResponseWriter, n int64) {
				http.Error(w, "boom", http.StatusInternalServerError)
			},
			call: func(t *testing.T, ctx context.Context, c *Client, _ time.Time) {
				resp, err := roundTrip(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Status != http.StatusInternalServerError || string(resp.Body) != "boom\n" {
					t.Fatalf("got HTTP %d %q, want 500 \"boom\\n\"", resp.Status, resp.Body)
				}
			},
			wantCalls: 1,
		},
		{
			name:  "roundtrip-dropped-connection",
			reply: func(w http.ResponseWriter, n int64) { drop(w) },
			call: func(t *testing.T, ctx context.Context, c *Client, _ time.Time) {
				if _, err := roundTrip(ctx, c); !isTransport(err) {
					t.Fatalf("want a transport error after %d drops, got %v", attempts, err)
				}
			},
			wantCalls:   attempts,
			wantRetries: attempts - 1,
		},
		{
			name: "roundtrip-circuit-open",
			reply: func(w http.ResponseWriter, n int64) {
				WriteJSON(w, http.StatusOK, Health{Status: "ok"})
			},
			opts:        []ClientOption{WithBreaker(1, time.Minute)},
			openBreaker: true,
			call: func(t *testing.T, ctx context.Context, c *Client, start time.Time) {
				if _, err := roundTrip(ctx, c); !errors.Is(err, ErrCircuitOpen) {
					t.Fatalf("want ErrCircuitOpen, got %v", err)
				}
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Fatalf("open circuit took %v to fail, want at once", d)
				}
			},
		},
		{
			// The breaker half-opens after its cooldown; Status backs off
			// across it and its probe gets through.
			name: "status-circuit-open",
			reply: func(w http.ResponseWriter, n int64) {
				WriteJSON(w, http.StatusOK, JobStatus{ID: "k", State: StateDone})
			},
			opts: []ClientOption{
				WithBreaker(1, 100*time.Millisecond),
				WithRetry(RetryPolicy{MaxAttempts: 40, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond}),
			},
			openBreaker: true,
			call: func(t *testing.T, ctx context.Context, c *Client, start time.Time) {
				st, err := c.Status(ctx, "k")
				if err != nil || st.State != StateDone {
					t.Fatalf("status = %+v, %v; want done once the circuit half-opens", st, err)
				}
				if d := time.Since(start); d < 100*time.Millisecond {
					t.Fatalf("status succeeded after %v, inside the breaker cooldown", d)
				}
			},
			wantCalls:   1,
			wantRetries: -1,
		},
		{
			name: "status-503-retry-after",
			reply: func(w http.ResponseWriter, n int64) {
				if n == 1 {
					WriteErrorRetry(w, CodeDraining, 150*time.Millisecond, "draining: not accepting new jobs")
					return
				}
				WriteJSON(w, http.StatusOK, JobStatus{ID: "k", State: StateDone})
			},
			call: func(t *testing.T, ctx context.Context, c *Client, _ time.Time) {
				if st, err := c.Status(ctx, "k"); err != nil || st.State != StateDone {
					t.Fatalf("status = %+v, %v; want done after one retry", st, err)
				}
			},
			wantCalls:   2,
			wantRetries: 1,
			gaps: func(t *testing.T, gaps []time.Duration) {
				if gaps[0] < 150*time.Millisecond {
					t.Fatalf("retried after %v, sooner than the envelope's retry_after_ms (150ms)", gaps[0])
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var times []time.Time
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				times = append(times, time.Now())
				n := int64(len(times))
				mu.Unlock()
				tc.reply(w, n)
			}))
			defer ts.Close()
			c := NewClient(ts.URL, append([]ClientOption{WithRetry(fastRetry(attempts))}, tc.opts...)...)
			if tc.openBreaker {
				c.br.record(false)
				if !c.CircuitOpen() {
					t.Fatal("breaker did not open")
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			before := clientMet.retries.Load()
			tc.call(t, ctx, c, time.Now())
			retries := clientMet.retries.Load() - before
			mu.Lock()
			defer mu.Unlock()
			if got := int64(len(times)); got != tc.wantCalls {
				t.Fatalf("%d server calls, want %d", got, tc.wantCalls)
			}
			if tc.wantRetries < 0 && retries < 1 || tc.wantRetries >= 0 && retries != tc.wantRetries {
				t.Fatalf("serve.client.retries moved by %d, want %d (-1: at least one)", retries, tc.wantRetries)
			}
			if tc.gaps != nil {
				var gaps []time.Duration
				for i := 1; i < len(times); i++ {
					gaps = append(gaps, times[i].Sub(times[i-1]))
				}
				tc.gaps(t, gaps)
			}
		})
	}
}
