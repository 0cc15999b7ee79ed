package obsv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Distributed-tracing span model: a request carries one TraceID end to end
// (client → daemon → harness), and every stage it passes through records a
// Span with a parent link. Propagation across the HTTP boundary uses the
// W3C trace-context `traceparent` header shape. Spans are recorded into a
// capped in-memory SpanRecorder and exported as NDJSON (one span per line)
// or as Chrome trace events through the existing Tracer, so a request's life
// opens in Perfetto next to the simulator's region spans.

// HeaderTraceparent is the W3C trace-context header in its canonical
// net/http spelling, so Header.Get and Header.Set need not canonicalise
// (and allocate) the key on every request.
const HeaderTraceparent = "Traceparent"

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the ID as lowercase hex (the traceparent wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex (the traceparent wire form).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated pair: which trace, and which span is the
// parent of whatever happens next.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// NewTrace starts a fresh trace with a root span ID. ID generation reads
// crypto/rand; it is a per-request cold path, never per-cycle.
func NewTrace() SpanContext {
	var sc SpanContext
	mustRand(sc.Trace[:])
	mustRand(sc.Span[:])
	return sc
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var id SpanID
	mustRand(id[:])
	return id
}

// Child returns a context for a child span: same trace, fresh span ID.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{Trace: sc.Trace, Span: NewSpanID()}
}

func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("obsv: crypto/rand failed: %v", err))
	}
}

// Traceparent renders the context in the W3C trace-context header form:
// version 00, sampled flag set.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte and ignores the flags; ok is false for malformed values and
// for the forbidden all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(s[3:35])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(s[36:52])); err != nil {
		return sc, false
	}
	if sc.Trace.IsZero() || sc.Span.IsZero() {
		return sc, false
	}
	return sc, true
}

// Span is one completed operation within a trace. Start/End are time.Time
// values carrying Go's monotonic clock reading, so End.Sub(Start) is immune
// to wall-clock steps.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for root spans
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  map[string]string
}

// spanJSON is the NDJSON export shape of one span.
type spanJSON struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_unix_ns"`
	DurNS    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// SpanRecorder is a concurrency-safe, capped span buffer. When full it drops
// new spans and counts them, mirroring the Tracer's bounded-buffer contract:
// observability must never grow without bound under a request flood.
type SpanRecorder struct {
	mu      sync.Mutex
	spans   []Span
	cap     int
	dropped int64
}

// DefaultSpanCap bounds a recorder that was given no explicit capacity.
const DefaultSpanCap = 1 << 14

// NewSpanRecorder returns a recorder holding at most capacity spans
// (capacity <= 0 selects DefaultSpanCap).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRecorder{cap: capacity}
}

// Record appends one finished span, dropping it if the buffer is full.
func (r *SpanRecorder) Record(sp Span) {
	r.mu.Lock()
	if len(r.spans) >= r.cap {
		r.dropped++
	} else {
		r.spans = append(r.spans, sp)
	}
	r.mu.Unlock()
}

// Len returns the number of buffered spans.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans were discarded because the buffer was full.
func (r *SpanRecorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns a copy of the buffered spans in record order.
func (r *SpanRecorder) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteNDJSON writes one JSON object per line per span, in record order.
func (r *SpanRecorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range r.Snapshot() {
		j := spanJSON{
			TraceID: sp.Trace.String(),
			SpanID:  sp.ID.String(),
			Name:    sp.Name,
			StartNS: sp.Start.UnixNano(),
			DurNS:   sp.End.Sub(sp.Start).Nanoseconds(),
			Attrs:   sp.Attrs,
		}
		if !sp.Parent.IsZero() {
			j.ParentID = sp.Parent.String()
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrace exports the spans as Chrome trace events via a fresh Tracer:
// one thread row per trace, timestamps in microseconds relative to the
// earliest span start. The output opens in Perfetto/chrome://tracing.
func (r *SpanRecorder) WriteTrace(w io.Writer) error {
	spans := r.Snapshot()
	t := NewTracer()
	if len(spans) == 0 {
		return t.WriteJSON(w)
	}
	epoch := spans[0].Start
	for _, sp := range spans {
		if sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	// Stable thread row per trace ID, in order of first appearance.
	tids := make(map[TraceID]int)
	for _, sp := range spans {
		tid, ok := tids[sp.Trace]
		if !ok {
			tid = len(tids)
			tids[sp.Trace] = tid
			t.ThreadName(tid, "trace "+sp.Trace.String()[:8])
		}
		args := map[string]any{
			"trace_id": sp.Trace.String(),
			"span_id":  sp.ID.String(),
		}
		if !sp.Parent.IsZero() {
			args["parent_id"] = sp.Parent.String()
		}
		for _, k := range sortedKeys(sp.Attrs) {
			args[k] = sp.Attrs[k]
		}
		start := sp.Start.Sub(epoch).Microseconds()
		end := sp.End.Sub(epoch).Microseconds()
		t.Span(tid, sp.Name, "span", start, end, args)
	}
	return t.WriteJSON(w)
}

func sortedKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// traceCtxKey carries a SpanContext through a context.Context (the
// harness progressKey pattern).
type traceCtxKey struct{}

// ContextWithSpan returns a context carrying sc as the current span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, sc)
}

// SpanFromContext extracts the current span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(traceCtxKey{}).(SpanContext)
	return sc, ok
}
