package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Typed error envelope: every non-2xx response from srvd (and from the srvgw
// gateway, which forwards node errors untouched) carries exactly one JSON
// shape,
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
//
// with a stable machine-readable code per taxonomy entry, so clients and
// proxies branch on Code instead of sniffing status lines or message text.
// The full contract is documented in API.md next to this file.

// ErrorCode is the stable machine-readable error taxonomy of the /v1 API.
// Codes are append-only: existing codes never change meaning or HTTP status.
type ErrorCode string

const (
	// CodeInvalidRequest (400): the request body did not decode or did not
	// validate (harness.ErrInvalidRequest).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound (404): the job ID is unknown to this node or gateway.
	CodeNotFound ErrorCode = "not_found"
	// CodeBodyTooLarge (413): the submission body exceeded the size guard.
	CodeBodyTooLarge ErrorCode = "body_too_large"
	// CodeCompileRejected (422): a synchronous job failed compiling the
	// workload — the request is well-formed but the program is not.
	CodeCompileRejected ErrorCode = "compile_rejected"
	// CodeOverCapacity (429): admission refused for load reasons (queue full,
	// or predicted queue wait over the deadline). Retry after RetryAfterMS.
	CodeOverCapacity ErrorCode = "over_capacity"
	// CodeDraining (503): the node is winding down (or the gateway has no
	// healthy node to route to). Retry after RetryAfterMS, elsewhere if
	// possible.
	CodeDraining ErrorCode = "draining"
	// CodeTimeout (504): a synchronous wait was cut short — job timeout,
	// drain cancellation, or the caller's own context expiring server-side.
	CodeTimeout ErrorCode = "timeout"
	// CodeSimFailed (500): the simulation itself failed (panic, deadlock,
	// divergence, budget); the envelope carries the typed FailureRecord via
	// Job. Deterministic — retrying reproduces the same failure.
	CodeSimFailed ErrorCode = "sim_failed"
	// CodeInternal (500): the node itself misbehaved (marshalling, hashing).
	CodeInternal ErrorCode = "internal"
)

// APIError is the payload under the "error" key of every non-2xx response.
type APIError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RetryAfterMS mirrors the Retry-After header (milliseconds; 0 = no
	// hint). Clients should not retry sooner.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Job carries the full terminal JobStatus when the error is a failed
	// synchronous (?wait=1) job, so the typed harness failure taxonomy
	// (FailureRecord) survives the envelope round trip.
	Job *JobStatus `json:"job,omitempty"`
}

// errorEnvelope is the wire shape of every non-2xx response body.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// statusFor maps each taxonomy code onto its (fixed) HTTP status.
func (c ErrorCode) statusFor() int {
	switch c {
	case CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeCompileRejected:
		return http.StatusUnprocessableEntity
	case CodeOverCapacity:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// codeForStatus is the reverse mapping, used when decoding a response that
// carried no envelope, only a status line.
func codeForStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeBodyTooLarge
	case http.StatusUnprocessableEntity:
		return CodeCompileRejected
	case http.StatusTooManyRequests:
		return CodeOverCapacity
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// WriteJSON writes v as an indented JSON response body under the given
// status. Exported for the gateway, which shares the node's response
// discipline so both speak byte-compatible JSON.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the typed error envelope for code with no Retry-After
// hint. The HTTP status is derived from the code — one code, one status.
func WriteError(w http.ResponseWriter, code ErrorCode, format string, args ...interface{}) {
	writeErrorEnvelope(w, code, 0, nil, format, args...)
}

// WriteErrorRetry is WriteError with a Retry-After hint: the header carries
// whole seconds (floored at 1, the header's resolution) and the envelope's
// retry_after_ms the millisecond truth.
func WriteErrorRetry(w http.ResponseWriter, code ErrorCode, retryAfter time.Duration, format string, args ...interface{}) {
	writeErrorEnvelope(w, code, retryAfter, nil, format, args...)
}

// writeErrorEnvelope renders the single non-2xx wire shape.
func writeErrorEnvelope(w http.ResponseWriter, code ErrorCode, retryAfter time.Duration, job *JobStatus, format string, args ...interface{}) {
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, code.statusFor(), errorEnvelope{Error: APIError{
		Code:         code,
		Message:      fmt.Sprintf(format, args...),
		RetryAfterMS: retryAfter.Milliseconds(),
		Job:          job,
	}})
}

// writeFailedJob renders a failed synchronous job as the error envelope,
// carrying the full JobStatus so the typed failure record round-trips.
func writeFailedJob(w http.ResponseWriter, code ErrorCode, st JobStatus) {
	writeErrorEnvelope(w, code, 0, &st, "job %s failed: %s", st.ID, st.Error)
}
