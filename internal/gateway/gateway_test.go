package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
	"srvsim/internal/workloads"
)

func testLoopReq(seed int64) harness.Request {
	return harness.Request{
		Mode: harness.ModeLoop, Bench: "svc", Seed: seed,
		Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: "svc", Trip: 256, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}},
	}
}

// fleet is an in-process gateway over n in-process srvd nodes, with every
// /v1/sims reply the nodes write recorded in replies.
type fleet struct {
	nodes   []*serve.Server
	servers []*httptest.Server
	gw      *Gateway
	front   *httptest.Server
	replies replyLog
}

func startFleet(t *testing.T, n int, cfg Config) *fleet {
	return startFleetWith(t, n, cfg, serve.Config{})
}

// startFleetWith is startFleet with node as every node's config, except that
// node i is named "node-i" and runs one worker unless node sets Workers.
func startFleetWith(t *testing.T, n int, cfg Config, node serve.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		nc := node
		nc.NodeID = fmt.Sprintf("node-%d", i)
		if nc.Workers == 0 {
			nc.Workers = 1
		}
		srv, err := serve.New(nc)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		ts := httptest.NewServer(f.replies.wrap(nc.NodeID, srv.Handler()))
		f.nodes = append(f.nodes, srv)
		f.servers = append(f.servers, ts)
		cfg.Nodes = append(cfg.Nodes, ts.URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	f.gw = gw
	f.front = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		f.front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = gw.Shutdown(ctx)
		for i, ts := range f.servers {
			ts.Close()
			_ = f.nodes[i].Shutdown(ctx)
		}
	})
	return f
}

// reply is one /v1/sims response exactly as a node wrote it.
type reply struct {
	node, method, path string
	status             int
	body               []byte
}

// replyLog records node replies in the order the node handlers return.
type replyLog struct {
	mu  sync.Mutex
	all []reply
}

// wrap records every /v1/sims reply h writes as node.
func (l *replyLog) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/sims") {
			h.ServeHTTP(w, r)
			return
		}
		tw := &teeWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(tw, r)
		l.mu.Lock()
		l.all = append(l.all, reply{node, r.Method, r.URL.Path, tw.status, tw.body.Bytes()})
		l.mu.Unlock()
	})
}

func (l *replyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.all)
}

// since returns the replies to method and path recorded after the first
// mark. A node handler returns before the gateway can read the reply's end,
// so a reply the gateway passed on is always here by the time it arrives.
func (l *replyLog) since(mark int, method, path string) []reply {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []reply
	for _, r := range l.all[mark:] {
		if r.method == method && r.path == path {
			out = append(out, r)
		}
	}
	return out
}

// teeWriter copies a handler's response body as it is written.
type teeWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *teeWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

func (w *teeWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// do sends one raw request to url and returns the response and its body.
func do(t *testing.T, method, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestFleetDrainHandoff is the fleet acceptance drill as a -race test: a
// 3-node fleet takes a queue of jobs, one node drains mid-queue (the
// SIGTERM path), and every job must still complete with the byte-identical
// result local execution produces — zero lost jobs, no client-visible 503s.
func TestFleetDrainHandoff(t *testing.T) {
	f := startFleet(t, 3, Config{})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	reqs := make([]harness.Request, 10)
	for i := range reqs {
		reqs[i] = testLoopReq(int64(500 + i))
		reqs[i].Loop.Shape.Trip = 1 << 11
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.ID != st.CacheKey {
			t.Fatalf("submit %d: job ID %q is not the cache key %q", i, st.ID, st.CacheKey)
		}
		if st.Node == "" {
			t.Fatalf("submit %d: status carries no owning node", i)
		}
		ids[i] = st.ID
	}

	// Drain node 0 mid-queue, then tear down its listener: its unstarted
	// jobs must be handed off, and status polls for its keys must rescue
	// them with the owner unreachable.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := f.nodes[0].Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	f.servers[0].Close()

	results := make([][]byte, len(reqs))
	for i, id := range ids {
		deadline := time.Now().Add(2 * time.Minute)
		for {
			st, err := c.Status(ctx, id)
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if st.State == serve.StateFailed {
				t.Fatalf("job %s failed: %s", id, st.Error)
			}
			if st.State == serve.StateDone {
				results[i] = st.Result
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s after drain", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i, req := range reqs {
		local, err := harness.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		var got harness.Result
		if err := json.Unmarshal(results[i], &got); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		gotBytes, _ := json.Marshal(got)
		if !bytes.Equal(gotBytes, want) {
			t.Fatalf("request %d diverged through the fleet:\n  %s\n  %s", i, gotBytes, want)
		}
	}
	if n := f.gw.Registry().Lookup("gateway.jobs_submitted"); n == nil || n.Int() == 0 {
		t.Fatal("gateway.jobs_submitted did not advance")
	}
}

// TestGatewayCacheTier: a repeat submission is answered from the gateway's
// own LRU — no node hop — and still byte-identical.
func TestGatewayCacheTier(t *testing.T) {
	f := startFleet(t, 2, Config{})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := testLoopReq(7)
	first, err := c.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatalf("repeat submission not served from cache: %+v", st)
	}
	if hits := f.gw.Registry().Lookup("gateway.cache.hits"); hits == nil || hits.Int() != 1 {
		t.Fatalf("gateway.cache.hits != 1 after repeat submission")
	}
	var second harness.Result
	if err := json.Unmarshal(st.Result, &second); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("gateway cache returned different bytes:\n  %s\n  %s", a, b)
	}
}

// TestGatewayForwardsErrorEnvelope: edge-side refusals and node-side
// failures both reach the client as the one typed envelope shape — the
// node's envelope travelling through the gateway untouched.
func TestGatewayForwardsErrorEnvelope(t *testing.T) {
	f := startFleet(t, 2, Config{})
	c := serve.NewClient(f.front.URL, serve.WithRetry(serve.RetryPolicy{MaxAttempts: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Edge refusal: an invalid request never reaches a node.
	_, err := c.Do(ctx, harness.Request{Mode: "nonsense"})
	if !errors.Is(err, harness.ErrInvalidRequest) {
		t.Fatalf("invalid request did not unwrap to ErrInvalidRequest: %v", err)
	}

	// Node-side typed failure: a compile-rejected request's SimError must
	// round-trip through node envelope → gateway → client.
	bad := testLoopReq(9)
	bad.Loop.Shape.Trip = 0 // rejected by validation at the edge or node
	if _, err := c.Do(ctx, bad); err == nil {
		t.Fatal("degenerate loop spec was accepted")
	}

	// Unknown job: the gateway's own 404 envelope carries the stable code.
	_, err = c.Status(ctx, strings.Repeat("ab", 32))
	var he *serve.HTTPError
	if !errors.As(err, &he) || he.Code != serve.CodeNotFound {
		t.Fatalf("unknown job error = %v, want code %q", err, serve.CodeNotFound)
	}
}

// TestGatewayOneTraceEndToEnd: a traced submission through the fleet yields
// client, gateway and node spans all under one TraceID.
func TestGatewayOneTraceEndToEnd(t *testing.T) {
	f := startFleet(t, 2, Config{})
	rec := obsv.NewSpanRecorder(0)
	c := serve.NewClient(f.front.URL, serve.WithSpanRecorder(rec))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := c.Do(ctx, testLoopReq(11)); err != nil {
		t.Fatal(err)
	}
	client := rec.Snapshot()
	if len(client) != 1 {
		t.Fatalf("client recorded %d spans, want 1", len(client))
	}
	trace := client[0].Trace

	var route *obsv.Span
	for _, sp := range f.gw.Spans().Snapshot() {
		if sp.Trace == trace && sp.Name == "gateway.route" {
			sp := sp
			route = &sp
		}
	}
	if route == nil {
		t.Fatalf("no gateway.route span under trace %s", trace)
	}
	if route.Parent != client[0].ID {
		t.Fatalf("gateway span parents %s, want the client span %s", route.Parent, client[0].ID)
	}

	// Some node recorded the execute stage under the same trace, parented
	// (transitively) by the gateway's route span.
	found := false
	for _, srv := range f.nodes {
		for _, sp := range srv.Spans().Snapshot() {
			if sp.Trace == trace && sp.Name == "execute" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no node execute span under trace %s", trace)
	}
}

// TestGatewayWorkStealing: with the owner's predicted wait pushed over the
// threshold, a new submission is routed to the least-loaded node instead.
func TestGatewayWorkStealing(t *testing.T) {
	// No poll after the first may overwrite the injected backlog.
	f := startFleet(t, 2, Config{StealThreshold: 100 * time.Millisecond, HealthInterval: time.Hour})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Find which node owns this key, then fake a deep backlog on it.
	req := testLoopReq(21)
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := f.gw.ring.Owner(key)
	n := f.gw.nodes[owner]
	n.mu.Lock()
	n.health.PredictedWaitMS = 10_000 // well past the 100ms threshold
	ownerID := n.health.Node
	n.mu.Unlock()
	if ownerID == "" {
		t.Fatalf("owner %s reported no node ID", owner)
	}

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node == ownerID {
		t.Fatalf("submission stayed on overloaded owner %s (%s)", ownerID, owner)
	}
	if steals := f.gw.Registry().Lookup("gateway.jobs_stolen"); steals == nil || steals.Int() == 0 {
		t.Fatal("gateway.jobs_stolen did not advance")
	}
}

// TestGatewayStream: the NDJSON stream proxies through with the terminal
// status carrying the job ID and the owning node.
func TestGatewayStream(t *testing.T) {
	f := startFleet(t, 2, Config{})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := c.Submit(ctx, testLoopReq(31))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", st.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := f.front.Client().Get(f.front.URL + "/v1/sims/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last serve.JobStatus
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for dec.More() {
		var probe serve.JobStatus
		if err := dec.Decode(&probe); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		if probe.State != "" {
			last = probe
		}
		lines++
	}
	if last.ID != st.ID {
		t.Fatalf("terminal stream line carries ID %q, want the job ID %q", last.ID, st.ID)
	}
	if last.State != serve.StateDone {
		t.Fatalf("terminal stream line state %q", last.State)
	}
	if last.Node == "" {
		t.Fatal("terminal stream line carries no owning node")
	}
}

// TestGatewayRepeatHitsKeepNoRecords: repeat submissions answered from the
// gateway cache leave no per-job state behind, and the key — the job ID —
// still answers status polls.
func TestGatewayRepeatHitsKeepNoRecords(t *testing.T) {
	f := startFleet(t, 2, Config{})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := testLoopReq(41)
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for st.State != serve.StateDone {
		if st.State == serve.StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = c.Status(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	const hits = 20
	for i := 0; i < hits; i++ {
		hit, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || hit.ID != st.CacheKey {
			t.Fatalf("repeat %d: cached=%v id=%q, want a cache hit named %q", i, hit.Cached, hit.ID, st.CacheKey)
		}
	}
	if n := f.gw.Registry().Lookup("gateway.cache.hits"); n == nil || n.Int() != hits {
		t.Fatalf("gateway.cache.hits != %d", hits)
	}
	if n := f.gw.Registry().Lookup("gateway.jobs_tracked"); n == nil || n.Int() != 0 {
		t.Fatalf("gateway.jobs_tracked = %v after repeat hits, want 0", n.Int())
	}
	got, err := c.Status(ctx, st.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDone || !bytes.Equal(got.Result, st.Result) {
		t.Fatalf("status of a hit key = %s, want done with the original result", got.State)
	}
}

// TestGatewayTenantQuota: tenant quotas live on the nodes alone. With
// greedy given a burst of 2 at a slow rate on each of 2 nodes, the fleet
// admits 4 of its submissions (a refusing node's 429 hands off to the other)
// and answers the 5th with the last node's 429 over_capacity byte for byte,
// retry hint included. On a 1-node fleet a fire-and-forget job returns its
// node byte charge when it finishes, with nobody polling the gateway.
func TestGatewayTenantQuota(t *testing.T) {
	f := startFleetWith(t, 2, Config{}, serve.Config{TenantQuotas: map[string]serve.TenantLimits{
		"greedy": {SubmitRate: 0.25, SubmitBurst: 2},
	}})
	greedy := map[string]string{serve.HeaderTenant: "greedy"}
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(testLoopReq(int64(50 + i)))
		mark := f.replies.len()
		resp, got := do(t, http.MethodPost, f.front.URL+"/v1/sims", body, greedy)
		if i < 4 {
			var st serve.JobStatus
			if resp.StatusCode != http.StatusAccepted || json.Unmarshal(got, &st) != nil || st.Tenant != "greedy" {
				t.Fatalf("submit %d: HTTP %d %s, want 202 for tenant greedy", i, resp.StatusCode, got)
			}
			continue
		}
		var env struct {
			Error serve.APIError `json:"error"`
		}
		if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(got, &env) != nil ||
			env.Error.Code != serve.CodeOverCapacity {
			t.Fatalf("submit 5: HTTP %d %s, want 429 %s", resp.StatusCode, got, serve.CodeOverCapacity)
		}
		if hint := time.Duration(env.Error.RetryAfterMS) * time.Millisecond; hint <= 0 || hint > 4*time.Second {
			t.Fatalf("retry hint %s, want within (0, 4s]", hint)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("the node's Retry-After header did not pass through")
		}
		refusals := f.replies.since(mark, http.MethodPost, "/v1/sims")
		if len(refusals) != 2 {
			t.Fatalf("submit 5 reached %d nodes, want both", len(refusals))
		}
		if last := refusals[1]; last.status != http.StatusTooManyRequests || !bytes.Equal(last.body, got) {
			t.Fatalf("gateway refusal differs from %s's:\n  %s\n  %s", last.node, got, last.body)
		}
	}

	heavy := testLoopReq(61)
	heavy.Tenant = "heavy"
	canonical, _ := heavy.Canonical()
	body, _ := json.Marshal(canonical)
	one := startFleetWith(t, 1, Config{}, serve.Config{TenantQuotas: map[string]serve.TenantLimits{
		"heavy": {MaxInflightBytes: int64(len(body))}, // room for one live body
	}})
	c := serve.NewClient(one.front.URL, serve.WithRetry(serve.RetryPolicy{MaxAttempts: 1}))
	node := serve.NewClient(one.servers[0].URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, heavy)
	if err != nil {
		t.Fatalf("first heavy submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		h, err := node.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		charged := false
		for _, ts := range h.Tenants {
			charged = charged || ts.Tenant == "heavy" && ts.InflightBytes != 0
		}
		if cur, err := node.Status(ctx, st.ID); err == nil && cur.State == serve.StateDone && !charged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the node kept heavy's byte charge after its job finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	second := testLoopReq(62)
	second.Tenant = "heavy"
	if _, err := c.Submit(ctx, second); err != nil {
		t.Fatalf("heavy submit after the first job finished: %v", err)
	}
}

// TestGatewaySweepSettlesUnpolledJobs: an async job that finishes with
// nobody polling through the gateway still leaves no rescue record, and its
// result reaches the gateway cache, within a few health-poll intervals.
func TestGatewaySweepSettlesUnpolledJobs(t *testing.T) {
	f := startFleet(t, 2, Config{})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := c.Submit(ctx, testLoopReq(81))
	if err != nil {
		t.Fatal(err)
	}
	// Watch the job finish on whichever node runs it, not through the gateway.
	deadline := time.Now().Add(time.Minute)
	for done := false; !done; {
		for _, ts := range f.servers {
			cur, err := serve.NewClient(ts.URL).Status(ctx, st.ID)
			done = done || err == nil && cur.State == serve.StateDone
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished on a node", st.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tracked := f.gw.Registry().Lookup("gateway.jobs_tracked")
	for settle := time.Now().Add(40 * f.gw.cfg.HealthInterval); tracked.Int() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(settle) {
			t.Fatalf("gateway.jobs_tracked = %d after the job finished, want 0", tracked.Int())
		}
	}
	got, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDone || !got.Cached || got.Node != f.gw.cfg.NodeID {
		t.Fatalf("status = %s cached=%v node=%q, want done from the gateway cache (%q)",
			got.State, got.Cached, got.Node, f.gw.cfg.NodeID)
	}
}

// TestGatewayPassesNodeRepliesVerbatim: for a ?wait=1 miss, an async
// submission, a status poll and a stream, the gateway's reply is the owning
// node's, byte for byte.
func TestGatewayPassesNodeRepliesVerbatim(t *testing.T) {
	// No gateway cache and no sweep: every request below reaches exactly one
	// node exactly once.
	f := startFleet(t, 2, Config{CacheSize: -1, HealthInterval: time.Hour})
	same := func(what, method, path string, mark int, resp *http.Response, got []byte) {
		t.Helper()
		replies := f.replies.since(mark, method, path)
		if len(replies) != 1 {
			t.Fatalf("%s reached %d node replies, want 1", what, len(replies))
		}
		if r := replies[0]; r.status != resp.StatusCode || !bytes.Equal(r.body, got) {
			t.Fatalf("%s: gateway HTTP %d differs from %s's HTTP %d:\n  %s\n  %s",
				what, resp.StatusCode, r.node, r.status, got, r.body)
		}
	}

	body, _ := json.Marshal(testLoopReq(91))
	mark := f.replies.len()
	resp, got := do(t, http.MethodPost, f.front.URL+"/v1/sims?wait=1", body, nil)
	same("?wait=1 miss", http.MethodPost, "/v1/sims", mark, resp, got)
	var st serve.JobStatus
	if err := json.Unmarshal(got, &st); err != nil || st.State != serve.StateDone || !strings.HasPrefix(st.Node, "node-") {
		t.Fatalf("?wait=1 miss: %s, want a done status naming its node", got)
	}

	body, _ = json.Marshal(testLoopReq(92))
	mark = f.replies.len()
	resp, got = do(t, http.MethodPost, f.front.URL+"/v1/sims", body, nil)
	same("async submission", http.MethodPost, "/v1/sims", mark, resp, got)

	path := "/v1/sims/" + st.ID
	mark = f.replies.len()
	resp, got = do(t, http.MethodGet, f.front.URL+path, nil, nil)
	same("status poll", http.MethodGet, path, mark, resp, got)

	mark = f.replies.len()
	resp, got = do(t, http.MethodGet, f.front.URL+path+"/stream", nil, nil)
	same("stream", http.MethodGet, path+"/stream", mark, resp, got)
}

// TestGatewayBrownoutAggregate: /v1/healthz reports the least-degraded
// brownout step among eligible nodes, since a submission is routed to the
// node that will take it; ineligible nodes do not count.
func TestGatewayBrownoutAggregate(t *testing.T) {
	// No poll after the first may overwrite the injected snapshots.
	f := startFleet(t, 3, Config{HealthInterval: time.Hour})
	c := serve.NewClient(f.front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, tc := range []struct {
		name     string
		steps    [3]string
		draining [3]bool
		want     string
	}{
		{name: "serving", want: ""},
		{name: "one-degraded", steps: [3]string{"cached-only", "", ""}, want: ""},
		{name: "all-degraded", steps: [3]string{"cached-only", "shed-low", "no-new-work"}, want: "shed-low"},
		{name: "ineligible-ignored", steps: [3]string{"cached-only", "shed-low", "no-new-work"},
			draining: [3]bool{false, true, false}, want: "no-new-work"},
		{name: "none-eligible", steps: [3]string{"cached-only", "shed-low", "no-new-work"},
			draining: [3]bool{true, true, true}, want: ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, name := range f.gw.order {
				n := f.gw.nodes[name]
				n.mu.Lock()
				n.health.Brownout = tc.steps[i]
				n.draining = tc.draining[i]
				n.mu.Unlock()
			}
			h, err := c.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if h.Brownout != tc.want {
				t.Fatalf("gateway brownout = %q, want %q", h.Brownout, tc.want)
			}
		})
	}
}

// TestGatewayDropsExpiredRecords: an async job whose deadline passes while
// it sits queued on its owner, which then drains and dies, is dropped from
// the gateway's rescue records within a few health polls — not resubmitted
// to a surviving node that would only refuse to start it.
func TestGatewayDropsExpiredRecords(t *testing.T) {
	// No stealing: the queued job must stay on its ring owner.
	f := startFleet(t, 2, Config{StealThreshold: -1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := testLoopReq(101)
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := 0
	for i, ts := range f.servers {
		if ts.URL == f.gw.ring.Owner(key) {
			owner = i
		}
	}

	// Occupy the owner's one worker with a long job, sent to it directly.
	long := testLoopReq(102)
	long.Loop.Shape.Trip = 1 << 20
	nc := serve.NewClient(f.servers[owner].URL)
	lst, err := nc.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := nc.Status(ctx, lst.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateRunning {
			break
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			t.Fatalf("long job ended %s before the test could queue behind it", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	const deadline = 300 * time.Millisecond
	body, _ := json.Marshal(req)
	resp, got := do(t, http.MethodPost, f.front.URL+"/v1/sims", body,
		map[string]string{serve.HeaderDeadlineMS: fmt.Sprint(deadline.Milliseconds())})
	var st serve.JobStatus
	if err := json.Unmarshal(got, &st); err != nil || resp.StatusCode != http.StatusAccepted ||
		st.State != serve.StateQueued || st.Node != fmt.Sprintf("node-%d", owner) {
		t.Fatalf("submission: HTTP %d %s, want 202 queued on node-%d", resp.StatusCode, got, owner)
	}
	tracked := f.gw.Registry().Lookup("gateway.jobs_tracked")
	if n := tracked.Int(); n != 1 {
		t.Fatalf("gateway.jobs_tracked = %d after the submission, want 1", n)
	}

	// Once the deadline has passed, drain the owner (cancelling the long
	// job) and tear down its listener.
	time.Sleep(deadline + 50*time.Millisecond)
	mark := f.replies.len()
	dctx, dcancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer dcancel()
	_ = f.nodes[owner].Drain(dctx)
	f.servers[owner].Close()

	for settle := time.Now().Add(20 * f.gw.cfg.HealthInterval); tracked.Int() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(settle) {
			t.Fatalf("gateway.jobs_tracked = %d with the record's deadline long past, want 0", tracked.Int())
		}
	}
	if posts := f.replies.since(mark, http.MethodPost, "/v1/sims"); len(posts) != 0 {
		t.Fatalf("the expired job was resubmitted: %d POSTs reached %s after the owner died (HTTP %d %s)",
			len(posts), posts[0].node, posts[0].status, posts[0].body)
	}
}
