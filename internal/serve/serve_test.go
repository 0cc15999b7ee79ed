package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// testLoopReq is a small, fast loop request used throughout the tests.
func testLoopReq() harness.Request {
	return harness.Request{
		Mode: harness.ModeLoop, Bench: "svc", Seed: 7,
		Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: "svc", Trip: 64, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}},
	}
}

// startServer brings up a full service on an httptest listener.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, NewClient(ts.URL)
}

// metricValue scrapes /v1/metrics through the API and returns one counter.
func metricValue(t *testing.T, c *Client, name string) int64 {
	t.Helper()
	resp, err := http.Get(c.base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics []struct {
		Name  string `json:"name"`
		Value *int64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		if m.Name == name && m.Value != nil {
			return *m.Value
		}
	}
	t.Fatalf("metric %q not exported", name)
	return 0
}

// TestSubmitPollStreamCache is the end-to-end happy path: submit, poll to
// completion, tail the stream, and verify the identical resubmission is a
// byte-identical cache hit with the obsv counters to prove it.
func TestSubmitPollStreamCache(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	st, err := c.Submit(ctx, testLoopReq())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("fresh submission in state %q", st.State)
	}
	if st.Cached {
		t.Fatal("fresh submission claims to be cached")
	}

	// Poll until terminal.
	deadline := time.Now().Add(2 * time.Minute)
	for !st.State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = c.Status(ctx, st.ID); err != nil {
			t.Fatalf("status: %v", err)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job failed: %+v", st)
	}
	var first harness.Result
	if err := json.Unmarshal(st.Result, &first); err != nil {
		t.Fatal(err)
	}
	if first.Loop == nil || first.Loop.Speedup <= 0 {
		t.Fatalf("result carries no loop payload: %+v", first)
	}

	// The stream replays history and terminates with the final status.
	resp, err := http.Get(c.base + "/v1/sims/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("stream produced no lines")
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("terminal stream line: %v", err)
	}
	if final.ID != st.ID || final.State != StateDone {
		t.Fatalf("terminal stream line is %+v", final)
	}

	// Identical resubmission: immediate, cached, byte-identical.
	st2, err := c.Submit(ctx, testLoopReq())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}
	if st2.ID != st.ID || st2.ID != st.CacheKey {
		t.Fatalf("resubmission named job %q, want the cache key %q", st2.ID, st.CacheKey)
	}
	if !bytes.Equal(st2.Result, st.Result) {
		t.Fatalf("cached result differs:\n  %s\n  %s", st2.Result, st.Result)
	}
	if hits := metricValue(t, c, "serve.cache.hits"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := metricValue(t, c, "serve.cache.misses"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	if entries := metricValue(t, c, "serve.cache.entries"); entries != 1 {
		t.Fatalf("cache entries = %d, want 1", entries)
	}
}

// TestSynchronousWait exercises POST /v1/sims?wait=1 (what Client.Do and the
// remote Executor use) and confirms it agrees with the benchmark wrappers.
func TestSynchronousWait(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := testLoopReq()
	res, err := c.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := json.Marshal(res)
	want, _ := json.Marshal(local)
	if !bytes.Equal(remote, want) {
		t.Fatalf("remote and local results differ:\n  %s\n  %s", remote, want)
	}
}

// TestNodeHarnessEnv: a node given its own harness Env runs its jobs there,
// so its simulations add to that Env's fleet counters and leave the package
// default Env's untouched.
func TestNodeHarnessEnv(t *testing.T) {
	harness.ResetFleet()
	env := &harness.Env{Parallelism: 2}
	_, c := startServer(t, Config{Harness: env})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := c.Do(ctx, testLoopReq()); err != nil {
		t.Fatal(err)
	}
	if s := env.SnapshotFleet(); s.Simulations != 2 {
		t.Errorf("node Env counted %d simulations, want 2 (scalar and SRV)", s.Simulations)
	}
	if s := harness.SnapshotFleet(); s.Simulations != 0 || s.BusyMS != 0 {
		t.Errorf("the default Env counted the node's work: %+v", s)
	}
}

func TestInvalidRequestIs400(t *testing.T) {
	s, c := startServer(t, Config{})
	ctx := context.Background()
	_, err := c.Submit(ctx, harness.Request{Mode: "nonsense"})
	if err == nil {
		t.Fatal("invalid mode accepted")
	}
	if !strings.Contains(err.Error(), "invalid request") {
		t.Fatalf("error does not identify the invalid request: %v", err)
	}

	// Benchmark name that does not resolve.
	_, err = c.Submit(ctx, harness.Request{Mode: harness.ModeBenchmark, Bench: "no-such-bench"})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}

	// A valid request followed by trailing data is refused whole, as the
	// gateway refuses it.
	body, err := json.Marshal(testLoopReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v1/sims", "application/json", bytes.NewReader(append(body, " garbage"...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("trailing data: HTTP %d code %q, want 400 %q", resp.StatusCode, env.Error.Code, CodeInvalidRequest)
	}
	s.mu.RLock()
	n := len(s.jobs)
	s.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d jobs tracked after refused submissions, want 0", n)
	}
}

// TestOutOfBoundsConfigIs400 submits a request whose pipeline
// configuration exceeds the request bounds and checks the typed envelope:
// HTTP 400, code invalid_request, no retry hint, and no job admitted.
func TestOutOfBoundsConfigIs400(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := testLoopReq()
	c := pipeline.DefaultConfig()
	c.MaxCycles = harness.MaxConfigCycles
	c.ROBSize = 1 << 20
	req.Config = &c
	resp, _, apiErr := rawSubmit(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != CodeInvalidRequest {
		t.Fatalf("oversized ROB: HTTP %d code %q, want 400 %q", resp.StatusCode, apiErr.Code, CodeInvalidRequest)
	}
	if apiErr.RetryAfterMS != 0 || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("invalid request carries a retry hint: %+v", apiErr)
	}
	if !strings.Contains(apiErr.Message, "ROBSize") {
		t.Fatalf("message %q does not name the field", apiErr.Message)
	}
	s.mu.RLock()
	n := len(s.jobs)
	s.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d jobs tracked after a refused submission, want 0", n)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, c := startServer(t, Config{})
	_, err := c.Status(context.Background(), "sim-999999")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404 error, got %v", err)
	}
}

// TestQueueFullIs429 fills the queue of a server whose workers never start,
// so the bound is deterministic.
func TestQueueFullIs429(t *testing.T) {
	s, err := New(Config{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// 429 is normally retried; a single attempt keeps the count deterministic.
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	ctx := context.Background()

	if _, err := c.Submit(ctx, testLoopReq()); err != nil {
		t.Fatalf("first submission should queue: %v", err)
	}
	req2 := testLoopReq()
	req2.Seed = 8 // different key, so the cache cannot absorb it
	_, err = c.Submit(ctx, req2)
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("expected queue-full rejection, got %v", err)
	}
	if rej := metricValue(t, c, "serve.jobs_rejected_queue_full"); rej != 1 {
		t.Fatalf("rejects = %d, want 1", rej)
	}
}

// TestJobTimeoutIs504: a job that blows its wall-clock budget fails with the
// cancellation taxonomy, maps to 504 on the synchronous path, and must not
// poison the cache.
func TestJobTimeoutIs504(t *testing.T) {
	s, c := startServer(t, Config{JobTimeout: time.Nanosecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := testLoopReq()
	req.Loop.Shape.Trip = 1 << 14
	st, err := c.post(ctx, req, true)
	if err == nil {
		t.Fatalf("timed-out job reported success: %+v", st)
	}
	se := harness.AsSimError(err)
	if se.Kind != harness.KindRunError || !strings.Contains(se.Msg, "cancelled") {
		t.Fatalf("timeout surfaced as %s: %v", se.Kind, err)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("failed job was cached (%d entries)", s.cache.Len())
	}
}
