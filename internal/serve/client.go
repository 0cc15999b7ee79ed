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
// The client is resilient by default: idempotent-safe failures (connection
// errors, 429/503/504 — never typed simulation failures) are retried with
// exponential backoff and full jitter, honouring the daemon's Retry-After;
// a per-host circuit breaker fails fast after consecutive transport failures
// and probes half-open after a cooldown. Together with the daemon's durable
// journal this is what lets `srvbench -remote` ride out a daemon restart.
type Client struct {
	base        string
	http        *http.Client
	retry       RetryPolicy
	br          *breaker
	pollTimeout time.Duration
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

// WithPollTimeout bounds each short-poll attempt (Status, Health, async
// Submit); 0 removes the bound. The ?wait=1 long poll is never bounded by
// this — use the call context.
func WithPollTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.pollTimeout = d }
}

// WithMaxResponseBytes caps how much of a response body the client reads;
// larger responses fail with ErrResponseTooLarge.
func WithMaxResponseBytes(n int64) ClientOption {
	return func(c *Client) { c.maxResponse = n }
}

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
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
// bounded by the request context, while short polls get a per-attempt
// timeout (WithPollTimeout).
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		http:        &http.Client{},
		retry:       DefaultRetryPolicy(),
		br:          newBreaker(5, 2*time.Second),
		pollTimeout: DefaultPollTimeout,
		maxResponse: DefaultMaxResponseBytes,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// decode parses an API response, converting non-2xx bodies into errors by
// decoding the typed error envelope ({"error": {code, message, ...}} — see
// API.md) instead of sniffing status lines: typed simulation failures
// round-trip as *harness.SimError via the envelope's embedded JobStatus,
// invalid requests unwrap to harness.ErrInvalidRequest, and everything else
// becomes an *HTTPError carrying the machine-readable code and Retry-After
// hint. Bodies are read through an io.LimitReader so a misbehaving daemon
// cannot balloon client memory.
func decode(resp *http.Response, v interface{}, max int64) error {
	defer resp.Body.Close()
	if max <= 0 {
		max = DefaultMaxResponseBytes
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err != nil {
		return &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	if int64(len(body)) > max {
		return fmt.Errorf("%w: body exceeds %d bytes", ErrResponseTooLarge, max)
	}
	if resp.StatusCode/100 != 2 {
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
			e := env.Error
			// The envelope's retry_after_ms is millisecond truth; the
			// Retry-After header is the same hint rounded up to whole seconds
			// for plain-HTTP intermediaries. When both are present the
			// envelope wins — even when smaller — so quota refusals with
			// sub-second buckets back off honestly instead of a whole second.
			if e.RetryAfterMS > 0 {
				ra = time.Duration(e.RetryAfterMS) * time.Millisecond
			}
			// A failed synchronous job travels inside the envelope with its
			// full JobStatus; surface the typed failure so remote errors keep
			// the harness taxonomy.
			if e.Job != nil && e.Job.Failure != nil {
				return e.Job.Failure.SimError()
			}
			he := &HTTPError{Status: resp.StatusCode, Code: e.Code, RetryAfter: ra, Msg: e.Message}
			if e.Code == CodeInvalidRequest {
				he.err = harness.ErrInvalidRequest
			}
			return he
		}
		// Not an envelope: net/http's own plain-text 404/405 and the like.
		return &HTTPError{Status: resp.StatusCode, Code: codeForStatus(resp.StatusCode), RetryAfter: ra, Msg: string(bytes.TrimSpace(body))}
	}
	return json.Unmarshal(body, v)
}

// attempt performs one exchange through the breaker: build constructs a
// fresh *http.Request (bodies must be re-readable across attempts), perCall
// optionally bounds this attempt's wall clock.
func (c *Client) attempt(ctx context.Context, perCall time.Duration, build func(context.Context) (*http.Request, error), out interface{}) error {
	if err := c.br.allow(); err != nil {
		return err
	}
	actx := ctx
	cancel := func() {}
	if perCall > 0 {
		actx, cancel = context.WithTimeout(ctx, perCall)
	}
	defer cancel()
	hreq, err := build(actx)
	if err != nil {
		c.br.record(true) // not a transport failure
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		// A caller-abandoned request says nothing about the daemon; a
		// per-attempt timeout or connection error does.
		if ctx.Err() == nil {
			c.br.record(false)
		}
		return &transportError{err: err}
	}
	c.br.record(true)
	return decode(resp, out, c.maxResponse)
}

// doRetry drives the attempt/backoff loop for one logical call.
func (c *Client) doRetry(ctx context.Context, perCall time.Duration, build func(context.Context) (*http.Request, error), out interface{}) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			clientMet.retries.Add(1)
			select {
			case <-time.After(c.retry.delay(attempt-1, retryAfterOf(err))):
			case <-ctx.Done():
				return fmt.Errorf("serve: retry abandoned: %w (last error: %v)", ctx.Err(), err)
			}
		}
		err = c.attempt(ctx, perCall, build, out)
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
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
	url := c.base + "/v1/sims"
	perCall := c.pollTimeout
	name := "client.submit"
	if wait {
		url += "?wait=1"
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
	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	attemptNo := 0
	err = c.doRetry(ctx, perCall, func(actx context.Context) (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("traceparent", sc.Traceparent())
		// Deadline rides the caller's context (not actx: the per-attempt
		// poll timeout is transport plumbing, not the caller's intent), as
		// relative milliseconds so fleet nodes need no clock agreement.
		if dl, ok := ctx.Deadline(); ok {
			ms := time.Until(dl).Milliseconds()
			if ms < 0 {
				ms = 0
			}
			hreq.Header.Set(HeaderDeadlineMS, strconv.FormatInt(ms, 10))
		}
		// The retry budget tells the gateway how many more attempts this
		// client has left, capping its hand-off walk so client retries and
		// gateway hand-offs cannot multiply into a storm.
		attemptNo++
		budget := maxAttempts - attemptNo
		if budget < 0 {
			budget = 0
		}
		hreq.Header.Set(HeaderRetryBudget, strconv.Itoa(budget))
		return hreq, nil
	}, &st)
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

// get performs one short-poll GET with retry.
func (c *Client) get(ctx context.Context, url string, out interface{}) error {
	return c.doRetry(ctx, c.pollTimeout, func(actx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	}, out)
}

// Submit enqueues a request and returns immediately with its job status.
func (c *Client) Submit(ctx context.Context, req harness.Request) (JobStatus, error) {
	return c.post(ctx, req, false)
}

// Status polls one job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.get(ctx, c.base+"/v1/sims/"+id, &st)
	return st, err
}

// Health checks the daemon's /v1/healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.get(ctx, c.base+"/v1/healthz", &h)
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

// APIResponse is one raw daemon response forwarded by RoundTrip.
type APIResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// RoundTrip performs one raw /v1 exchange under the client's transport
// discipline — per-host circuit breaker, transport-only retries, response
// size cap — and returns the daemon's answer verbatim. Unlike the typed
// methods it never interprets HTTP statuses: any response the daemon managed
// to send is authoritative and handed back untouched (body bytes included),
// which is what lets the srvgw gateway forward the API surface — the typed
// error envelope especially — without rewriting it. An open circuit fails
// fast (no backoff) so a fleet caller can immediately route around the node.
// perCall bounds each attempt's wall clock; 0 leaves only ctx.
func (c *Client) RoundTrip(ctx context.Context, method, path string, header http.Header, body []byte, perCall time.Duration) (*APIResponse, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			clientMet.retries.Add(1)
			select {
			case <-time.After(c.retry.delay(attempt-1, 0)):
			case <-ctx.Done():
				return nil, fmt.Errorf("serve: retry abandoned: %w (last error: %v)", ctx.Err(), lastErr)
			}
		}
		resp, err := c.rawAttempt(ctx, method, path, header, body, perCall)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var te *transportError
		if !errors.As(err, &te) || ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// rawAttempt is one RoundTrip exchange through the breaker.
func (c *Client) rawAttempt(ctx context.Context, method, path string, header http.Header, body []byte, perCall time.Duration) (*APIResponse, error) {
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
	max := c.maxResponse
	if max <= 0 {
		max = DefaultMaxResponseBytes
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err != nil {
		return nil, &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	if int64(len(b)) > max {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrResponseTooLarge, max)
	}
	return &APIResponse{Status: resp.StatusCode, Header: resp.Header, Body: b}, nil
}
