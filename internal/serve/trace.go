package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"srvsim/internal/obsv"
)

// Request tracing: every submission carries one obsv.TraceID end to end. The
// client stamps a W3C traceparent header; handleSubmit adopts it (or starts
// a fresh trace for bare curl submissions) and opens an "admission" span
// whose ID the job keeps, so the worker-side stage spans — queue-wait,
// execute, journal-append — and the per-loop progress children all hang off
// the same parent and share the submission's TraceID. Spans land in a capped
// in-memory recorder exported at GET /v1/trace (NDJSON, ?format=perfetto for
// a Chrome trace). The structured logs carry the same trace_id/job/cache_key
// fields, so `grep <trace_id>` lines a request's logs up with its spans.

// Spans exposes the server's span recorder (the obs-smoke drill and embedding
// exporters read it directly).
func (s *Server) Spans() *obsv.SpanRecorder { return s.spans }

// stageSpan records one server-side stage span under the given parent.
func (s *Server) stageSpan(trace obsv.TraceID, parent obsv.SpanID, name string, start, end time.Time, attrs map[string]string) {
	s.spans.Record(obsv.Span{
		Trace: trace, ID: obsv.NewSpanID(), Parent: parent,
		Name: name, Start: start, End: end, Attrs: attrs,
	})
}

// jobLogger returns the server logger with the job's correlation fields
// attached (trace_id first: it is the field operators grep by). A logger
// that records nothing is returned as is: With formats its fields eagerly.
func (s *Server) jobLogger(j *job) *slog.Logger {
	if !s.logger.Enabled(context.Background(), slog.LevelError) {
		return s.logger
	}
	return s.logger.With("trace_id", j.trace.Trace.String(), "job", j.id, "cache_key", j.id)
}

// TraceHandler serves GET /v1/trace for a node or the gateway: the spans
// buffered in rec as NDJSON (one span per line) by default, a
// Chrome/Perfetto trace document with ?format=perfetto.
func TraceHandler(rec *obsv.SpanRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "perfetto" {
			w.Header().Set("Content-Type", "application/json")
			_ = rec.WriteTrace(w)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = rec.WriteNDJSON(w)
	}
}
