package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
)

// DefaultMaxResponseBytes caps how much of a daemon response the client will
// read; see WithMaxResponseBytes.
const DefaultMaxResponseBytes = 64 << 20

// DefaultPollTimeout bounds the short-poll endpoints (Status, Health,
// asynchronous Submit) per attempt, so a half-dead connection surfaces as a
// retryable transport error instead of hanging forever. The long-poll
// ?wait=1 path is exempt — simulations can run for minutes — and is bounded
// only by the caller's context.
const DefaultPollTimeout = 30 * time.Second

// ErrResponseTooLarge reports a daemon response body over the client's cap.
var ErrResponseTooLarge = errors.New("serve: response too large")

// Client talks to a srvd daemon. Its Executor method plugs into
// harness.Env.Executor, turning every Run of that Env — and therefore every
// RunLoop/RunBenchmark/... wrapper and every figure — into a remote call,
// which is how `srvbench -remote` farms a whole experiment fleet out to one
// daemon (deduplicated by its result cache).
//
// Every call is one or more exchanges (one HTTP request through the per-host
// circuit breaker, its body read under the response cap) driven by one
// backoff loop; only the rule for which failures earn another attempt
// differs. The typed calls (Submit, Status, Health, Do) retry idempotent-safe
// failures — connection errors, an open circuit, 429/503/504, never typed
// simulation failures — with exponential backoff and full jitter, honouring
// the daemon's Retry-After; RoundTrip retries transport errors only. The
// breaker fails fast after consecutive transport failures and probes
// half-open after a cooldown. Together with the daemon's durable journal
// this is what lets `srvbench -remote` ride out a daemon restart.
type Client struct {
	base        string
	http        *http.Client
	retry       RetryPolicy
	br          *breaker
	maxResponse int64
	spans       *obsv.SpanRecorder
}

// ClientOption customises NewClient.
type ClientOption func(*Client)

// WithRetry replaces the retry policy (RetryPolicy{MaxAttempts: 1} disables
// retries entirely).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithBreaker replaces the circuit breaker: open after threshold consecutive
// transport failures, half-open probe after cooldown. threshold < 1 disables
// the breaker.
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return func(c *Client) { c.br = newBreaker(threshold, cooldown) }
}

// WithMaxResponseBytes caps how much of a response body the client reads;
// larger responses fail with ErrResponseTooLarge.
func WithMaxResponseBytes(n int64) ClientOption {
	return func(c *Client) { c.maxResponse = n }
}

// WithTransport substitutes the underlying transport (ChaosTransport in the
// resilience drills).
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.http.Transport = rt }
}

// WithSpanRecorder makes the client record one client-side span per
// submission into rec. Submissions always stamp a W3C traceparent header —
// continuing a span already carried by the call context, or starting a
// fresh trace — so the daemon's stage spans share the client's TraceID; the
// recorder just keeps the client's half of the trace locally.
func WithSpanRecorder(rec *obsv.SpanRecorder) ClientOption {
	return func(c *Client) { c.spans = rec }
}

// NewClient returns a resilient client for the daemon at base (e.g.
// "http://localhost:8077"). The underlying http.Client carries no global
// timeout — simulations can run for minutes — so the long-poll path is
// bounded by the request context, while short polls get DefaultPollTimeout
// per attempt.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		http:        &http.Client{},
		retry:       DefaultRetryPolicy(),
		br:          newBreaker(5, 2*time.Second),
		maxResponse: DefaultMaxResponseBytes,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIResponse is one daemon reply exactly as it arrived: status, headers and
// body bytes.
type APIResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// decode parses the reply into v, converting non-2xx bodies into errors by
// decoding the typed error envelope ({"error": {code, message, ...}} — see
// API.md) instead of sniffing status lines: typed simulation failures
// round-trip as *harness.SimError via the envelope's embedded JobStatus,
// invalid requests unwrap to harness.ErrInvalidRequest, and everything else
// becomes an *HTTPError carrying the machine-readable code and Retry-After
// hint.
func (r *APIResponse) decode(v interface{}) error {
	if r.Status/100 == 2 {
		return json.Unmarshal(r.Body, v)
	}
	ra := parseRetryAfter(r.Header.Get("Retry-After"))
	var env errorEnvelope
	if err := json.Unmarshal(r.Body, &env); err != nil || env.Error.Code == "" {
		// Not an envelope: net/http's own plain-text 404/405 and the like.
		return &HTTPError{Status: r.Status, Code: codeForStatus(r.Status), RetryAfter: ra, Msg: string(bytes.TrimSpace(r.Body))}
	}
	e := env.Error
	// The envelope's retry_after_ms is millisecond truth; the Retry-After
	// header is the same hint rounded up to whole seconds for plain-HTTP
	// intermediaries. When both are present the envelope wins — even when
	// smaller — so quota refusals with sub-second buckets back off honestly
	// instead of a whole second.
	if e.RetryAfterMS > 0 {
		ra = time.Duration(e.RetryAfterMS) * time.Millisecond
	}
	// A failed synchronous job travels inside the envelope with its full
	// JobStatus; surface the typed failure so remote errors keep the harness
	// taxonomy.
	if e.Job != nil && e.Job.Failure != nil {
		return e.Job.Failure.SimError()
	}
	he := &HTTPError{Status: r.Status, Code: e.Code, RetryAfter: ra, Msg: e.Message}
	if e.Code == CodeInvalidRequest {
		he.err = harness.ErrInvalidRequest
	}
	return he
}

// exchange is one attempt of any call: a request to path through the
// breaker, bounded by perCall when it is positive, whose reply body is read
// under the response cap (through an io.LimitReader, so a misbehaving daemon
// cannot balloon client memory) and returned verbatim. Any HTTP reply counts
// as a breaker success; a transport error counts as a failure only while the
// caller's context is live, since a caller-abandoned request says nothing
// about the daemon.
func (c *Client) exchange(ctx context.Context, perCall time.Duration, method, path string, header http.Header, body []byte) (*APIResponse, error) {
	if err := c.br.allow(); err != nil {
		return nil, err
	}
	actx := ctx
	cancel := func() {}
	if perCall > 0 {
		actx, cancel = context.WithTimeout(ctx, perCall)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		c.br.record(true) // not a transport failure
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() == nil {
			c.br.record(false)
		}
		return nil, &transportError{err: err}
	}
	c.br.record(true)
	defer resp.Body.Close()
	limit := c.maxResponse
	if limit <= 0 {
		limit = DefaultMaxResponseBytes
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrResponseTooLarge, limit)
	}
	return &APIResponse{Status: resp.StatusCode, Header: resp.Header, Body: b}, nil
}

// do drives one logical call: attempt n (0-based) runs, and while it fails
// with an error again accepts, the loop sleeps the jittered backoff (never
// less than the failure's Retry-After hint) and tries again, up to the
// policy's MaxAttempts.
func (c *Client) do(ctx context.Context, again func(error) bool, attempt func(n int) error) error {
	var err error
	for n := 0; n < c.attempts(); n++ {
		if n > 0 {
			clientMet.retries.Add(1)
			select {
			case <-time.After(c.retry.delay(n-1, retryAfterOf(err))):
			case <-ctx.Done():
				return fmt.Errorf("serve: retry abandoned: %w (last error: %v)", ctx.Err(), err)
			}
		}
		err = attempt(n)
		if err == nil || !again(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// attempts is the policy's attempt bound, at least one.
func (c *Client) attempts() int {
	return max(c.retry.MaxAttempts, 1)
}

// post submits req, optionally waiting for completion server-side. The
// submission span continues the trace carried by ctx (harness fleet runs put
// one there) or starts a fresh one; its traceparent rides every attempt, so
// retries stay within the one trace.
func (c *Client) post(ctx context.Context, req harness.Request, wait bool) (JobStatus, error) {
	var st JobStatus
	data, err := json.Marshal(req)
	if err != nil {
		return st, fmt.Errorf("serve: encoding request: %w", err)
	}
	path := "/v1/sims"
	perCall := DefaultPollTimeout
	name := "client.submit"
	if wait {
		path += "?wait=1"
		perCall = 0 // long poll: bounded by ctx only
		name = "client.do"
	}
	parent, hasParent := obsv.SpanFromContext(ctx)
	var sc obsv.SpanContext
	if hasParent {
		sc = parent.Child()
	} else {
		sc = obsv.NewTrace()
	}
	start := time.Now()
	err = c.do(ctx, retryable, func(n int) error {
		header := http.Header{}
		header.Set("Content-Type", "application/json")
		header.Set(obsv.HeaderTraceparent, sc.Traceparent())
		// Deadline rides the caller's context (not the per-attempt poll
		// timeout, which is transport plumbing, not the caller's intent), as
		// relative milliseconds so fleet nodes need no clock agreement.
		if dl, ok := ctx.Deadline(); ok {
			header.Set(HeaderDeadlineMS, strconv.FormatInt(max(time.Until(dl).Milliseconds(), 0), 10))
		}
		// The retry budget tells the gateway how many more attempts this
		// client has left, capping its hand-off walk so client retries and
		// gateway hand-offs cannot multiply into a storm.
		header.Set(HeaderRetryBudget, strconv.Itoa(c.attempts()-1-n))
		resp, err := c.exchange(ctx, perCall, http.MethodPost, path, header, data)
		if err != nil {
			return err
		}
		return resp.decode(&st)
	})
	if c.spans != nil {
		sp := obsv.Span{
			Trace: sc.Trace, ID: sc.Span, Name: name,
			Start: start, End: time.Now(),
			Attrs: map[string]string{"bench": req.Bench},
		}
		if hasParent {
			sp.Parent = parent.Span
		}
		if st.ID != "" {
			sp.Attrs["job"] = st.ID
			sp.Attrs["cache_key"] = st.CacheKey
		}
		if err != nil {
			sp.Attrs["error"] = err.Error()
		}
		c.spans.Record(sp)
	}
	return st, err
}

// get performs one short-poll GET of path with retry.
func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, retryable, func(int) error {
		resp, err := c.exchange(ctx, DefaultPollTimeout, http.MethodGet, path, nil, nil)
		if err != nil {
			return err
		}
		return resp.decode(out)
	})
}

// Submit enqueues a request and returns immediately with its job status.
func (c *Client) Submit(ctx context.Context, req harness.Request) (JobStatus, error) {
	return c.post(ctx, req, false)
}

// Status polls one job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.get(ctx, "/v1/sims/"+id, &st)
	return st, err
}

// Health checks the daemon's /v1/healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.get(ctx, "/v1/healthz", &h)
	return h, err
}

// Do runs one request to completion on the daemon and decodes its Result.
func (c *Client) Do(ctx context.Context, req harness.Request) (harness.Result, error) {
	var res harness.Result
	st, err := c.post(ctx, req, true)
	if err != nil {
		return res, err
	}
	if st.State != StateDone {
		if st.Failure != nil {
			return res, st.Failure.SimError()
		}
		return res, fmt.Errorf("serve: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return res, fmt.Errorf("serve: decoding result of %s: %w", st.ID, err)
	}
	return res, nil
}

// Executor adapts the client to harness.Env.Executor. A daemon's own Env
// (Config.Harness) must never have one: its jobs would recurse over the
// network.
func (c *Client) Executor() harness.Executor {
	return func(ctx context.Context, req harness.Request) (harness.Result, error) {
		return c.Do(ctx, req)
	}
}

// Base returns the daemon base URL this client targets.
func (c *Client) Base() string { return c.base }

// CircuitOpen reports whether the per-host circuit breaker is currently
// failing fast (too many consecutive transport failures, cooldown not yet
// elapsed). The srvgw gateway uses this as its node-ejection signal; the
// breaker's own half-open probe (a later health poll getting through and
// succeeding) closes the circuit again, which is the readmission signal.
func (c *Client) CircuitOpen() bool { return c.br.isOpen() }

// RoundTrip performs one raw /v1 exchange and returns the daemon's reply
// verbatim. It shares the typed calls' exchange — circuit breaker, response
// size cap — and their backoff loop, but retries transport errors only:
// any reply the daemon managed to send, whatever its status, is
// authoritative and handed back untouched (body bytes included), which is
// what lets the srvgw gateway forward the API surface — the typed error
// envelope especially — without rewriting it. An open circuit fails at once
// (no backoff) so a fleet caller can immediately route around the node.
// perCall bounds each attempt's wall clock; 0 leaves only ctx.
func (c *Client) RoundTrip(ctx context.Context, method, path string, header http.Header, body []byte, perCall time.Duration) (*APIResponse, error) {
	var resp *APIResponse
	err := c.do(ctx, isTransport, func(int) error {
		var err error
		resp, err = c.exchange(ctx, perCall, method, path, header, body)
		return err
	})
	return resp, err
}
