package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"srvsim/internal/harness"
)

// RetryPolicy configures the client's exponential backoff with full jitter.
// Only idempotent-safe failures are retried — connection errors, 429 (queue
// full / shed), 503 (draining) and 504 (wait interrupted) — never typed
// simulation failures, which are authoritative: a deterministic simulator
// fails the same way every time. Requests are content-addressed, so a retried
// submission is the same job identity and dedupes through the daemon's cache.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts including the first; values < 1 mean
	// a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the backoff unit: retry n sleeps a uniformly random
	// duration in [0, min(MaxDelay, BaseDelay·2ⁿ)] (full jitter), but never
	// less than the server's Retry-After hint. Default 250ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 10s.
	MaxDelay time.Duration
}

// DefaultRetryPolicy rides out a daemon restart of several seconds: 8
// attempts with 250ms base and 10s cap give an expected total sleep well past
// the default breaker cooldown, so half-open probes get through.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 8, BaseDelay: 250 * time.Millisecond, MaxDelay: 10 * time.Second}
}

// delay computes the sleep before retry number retryNum (0-based), honouring
// the server's Retry-After when it is longer than the jittered backoff.
func (p RetryPolicy) delay(retryNum int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 10 * time.Second
	}
	backoff := max
	if retryNum < 30 {
		if b := base << uint(retryNum); b > 0 && b < max {
			backoff = b
		}
	}
	d := time.Duration(rand.Int63n(int64(backoff) + 1)) // full jitter
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// HTTPError is a non-2xx daemon response that carried no typed simulation
// failure: the status, the machine-readable taxonomy code from the error
// envelope, the server's message, and its Retry-After hint when one was
// sent. 400s additionally unwrap to harness.ErrInvalidRequest.
type HTTPError struct {
	Status     int
	Code       ErrorCode
	RetryAfter time.Duration
	Msg        string
	err        error // optional sentinel (harness.ErrInvalidRequest for 400)
}

func (e *HTTPError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("serve: HTTP %d [%s]: %v: %s", e.Status, e.Code, e.err, e.Msg)
	}
	return fmt.Sprintf("serve: HTTP %d [%s]: %s", e.Status, e.Code, e.Msg)
}

func (e *HTTPError) Unwrap() error { return e.err }

// transportError marks a failure below HTTP — the request may never have
// reached the daemon. Always retry-safe: either it was not admitted, or it
// was and the retry dedupes by content address.
type transportError struct{ err error }

func (e *transportError) Error() string { return fmt.Sprintf("serve: transport: %v", e.err) }
func (e *transportError) Unwrap() error { return e.err }

// retryable classifies one attempt's failure. Typed SimErrors dominate: a
// simulation that failed is a fact about the (deterministic) simulation, not
// the network, so wrapping order cannot turn it retryable.
func retryable(err error) bool {
	var se *harness.SimError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, ErrCircuitOpen) {
		return true // backoff will outlast the cooldown and probe
	}
	if isTransport(err) {
		return true
	}
	var he *HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

// isTransport reports whether err failed below HTTP: the only failure
// RoundTrip retries.
func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// retryAfterOf extracts the server's Retry-After hint from a failed attempt.
func retryAfterOf(err error) time.Duration {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
