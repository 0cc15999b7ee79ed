package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// testBenchReq is a two-loop benchmark request: benchmark mode streams
// progress events, which must surface as progress spans server-side.
func testBenchReq() harness.Request {
	shape := func(name string) workloads.LoopSpec {
		return workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: name, Trip: 64, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}}
	}
	b := workloads.Benchmark{
		Name: "tracebench", Suite: "test", Coverage: 1,
		Loops: []workloads.LoopSpec{shape("a"), shape("b")},
	}
	return harness.Request{Mode: harness.ModeBenchmark, Bench: b.Name, BenchSpec: &b, Seed: 7}
}

// TestTracePropagationEndToEnd drives one traced job through client,
// admission, queue, execution and progress reporting, and asserts every span
// on both sides carries the client's TraceID with the right parent links.
func TestTracePropagationEndToEnd(t *testing.T) {
	s, c0 := startServer(t, Config{})
	rec := obsv.NewSpanRecorder(0)
	c := NewClient(c0.base, WithSpanRecorder(rec))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := c.Do(ctx, testBenchReq()); err != nil {
		t.Fatal(err)
	}

	client := rec.Snapshot()
	if len(client) != 1 {
		t.Fatalf("client recorded %d spans, want 1", len(client))
	}
	root := client[0]
	if root.Name != "client.do" {
		t.Fatalf("client span named %q, want client.do", root.Name)
	}
	trace := root.Trace

	byName := map[string][]obsv.Span{}
	progress := 0
	for _, sp := range s.Spans().Snapshot() {
		if sp.Trace != trace {
			t.Fatalf("server span %q carries trace %s, want %s", sp.Name, sp.Trace, trace)
		}
		if strings.HasPrefix(sp.Name, "progress:") {
			progress++
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, stage := range []string{"admission", "queue-wait", "execute"} {
		if len(byName[stage]) != 1 {
			t.Fatalf("want exactly one %q span, got %d", stage, len(byName[stage]))
		}
	}
	if progress < 2 {
		t.Fatalf("want >= 2 progress spans (one per loop), got %d", progress)
	}
	adm := byName["admission"][0]
	if adm.Parent != root.ID {
		t.Fatalf("admission span parent = %s, want the client span %s", adm.Parent, root.ID)
	}
	if p := byName["queue-wait"][0].Parent; p != adm.ID {
		t.Fatalf("queue-wait parent = %s, want admission %s", p, adm.ID)
	}
	if p := byName["execute"][0].Parent; p != adm.ID {
		t.Fatalf("execute parent = %s, want admission %s", p, adm.ID)
	}
	if adm.Attrs["outcome"] != "queued" {
		t.Fatalf("admission outcome = %q, want queued", adm.Attrs["outcome"])
	}
	if byName["execute"][0].Attrs["outcome"] != "done" {
		t.Fatalf("execute outcome = %q, want done", byName["execute"][0].Attrs["outcome"])
	}

	// The job status reports the trace it ran under, closing the loop for
	// clients that want to grep logs afterwards.
	st, err := c.Submit(ctx, testBenchReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("job status carries no trace_id")
	}
}

// TestTraceEndpointFormats checks GET /v1/trace serves spans as NDJSON by
// default and as a Perfetto trace with ?format=perfetto.
func TestTraceEndpointFormats(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Do(ctx, testLoopReq()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.base + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var span struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		if span.TraceID == "" || span.Name == "" {
			t.Fatalf("span missing fields: %s", sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no spans in /v1/trace")
	}

	resp, err = http.Get(c.base + "/v1/trace?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pf); err != nil {
		t.Fatal(err)
	}
	if len(pf.TraceEvents) == 0 {
		t.Fatal("perfetto trace has no events")
	}
}

// TestPrometheusEndpoint scrapes ?format=prometheus after one job and checks
// the exposition parses and accounts for it.
func TestPrometheusEndpoint(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Do(ctx, testLoopReq()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obsv.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obsv.PromContentType)
	}
	samples, err := obsv.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, s := range samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value
			}
		}
		t.Fatalf("sample %q not exposed", name)
		return 0
	}
	if v := get("serve_jobs_done"); v != 1 {
		t.Fatalf("serve_jobs_done = %v, want 1", v)
	}
	if v := get("serve_e2e_latency_ms_count"); v < 1 {
		t.Fatalf("serve_e2e_latency_ms_count = %v, want >= 1", v)
	}
	get("serve_trace_spans") // exposed, whatever its value
	// Histogram buckets must be cumulative: the +Inf bucket equals the count.
	var inf, count float64
	for _, s := range samples {
		if s.Name == "serve_e2e_latency_ms_bucket" && s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
		if s.Name == "serve_e2e_latency_ms_count" && len(s.Labels) == 0 {
			count = s.Value
		}
	}
	if inf != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
}
