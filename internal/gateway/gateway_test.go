package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// fleet is an in-process gateway over n in-process srvd nodes.
type fleet struct {
	nodes   []*serve.Server
	servers []*httptest.Server
	gw      *Gateway
	front   *httptest.Server
}

func startFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{NodeID: fmt.Sprintf("node-%d", i), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		ts := httptest.NewServer(srv.Handler())
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
	f := startFleet(t, 2, Config{StealThreshold: 100 * time.Millisecond})
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
	n.mu.Unlock()

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node == owner {
		t.Fatalf("submission stayed on overloaded owner %s", owner)
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

// TestGatewayTenantQuota: the edge enforces tenant quotas before a node sees
// the submission. A rate-limited tenant's burst ends in 429 over_capacity
// with an honest retry hint, and an in-flight-bytes cap refuses a second
// live submission until a status poll shows the first terminal.
func TestGatewayTenantQuota(t *testing.T) {
	heavy := testLoopReq(61)
	heavy.Tenant = "heavy"
	body, err := json.Marshal(heavy)
	if err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, 2, Config{TenantQuotas: map[string]serve.TenantLimits{
		"greedy": {SubmitRate: 0.25, SubmitBurst: 2},
		"heavy":  {MaxInflightBytes: int64(len(body))}, // room for one live body
	}})
	c := serve.NewClient(f.front.URL, serve.WithRetry(serve.RetryPolicy{MaxAttempts: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The bucket holds 2 tokens and refills one every 4s.
	for i := 0; i < 3; i++ {
		req := testLoopReq(int64(50 + i))
		req.Tenant = "greedy"
		st, err := c.Submit(ctx, req)
		if i < 2 {
			if err != nil {
				t.Fatalf("burst submit %d: %v", i, err)
			}
			if st.Tenant != "greedy" {
				t.Fatalf("accepted job carries tenant %q, want greedy", st.Tenant)
			}
			continue
		}
		var he *serve.HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests || he.Code != serve.CodeOverCapacity {
			t.Fatalf("over-burst submit: %v, want 429 %s", err, serve.CodeOverCapacity)
		}
		if he.RetryAfter <= 0 || he.RetryAfter > 4*time.Second {
			t.Fatalf("retry hint %s, want within (0, 4s]", he.RetryAfter)
		}
	}
	if n := f.gw.Registry().Lookup("gateway.jobs_shed_quota"); n == nil || n.Int() != 1 {
		t.Fatal("gateway.jobs_shed_quota did not count the rate refusal")
	}

	st, err := c.Submit(ctx, heavy)
	if err != nil {
		t.Fatalf("first heavy submit: %v", err)
	}
	second := testLoopReq(62)
	second.Tenant = "heavy"
	var he *serve.HTTPError
	if _, err := c.Submit(ctx, second); !errors.As(err, &he) || he.Code != serve.CodeOverCapacity {
		t.Fatalf("second live heavy submit: %v, want 429 %s", err, serve.CodeOverCapacity)
	}
	if n := f.gw.Registry().Lookup("gateway.jobs_shed_quota"); n.Int() != 2 {
		t.Fatalf("gateway.jobs_shed_quota = %d, want 2", n.Int())
	}
	for st.State != serve.StateDone {
		if st.State == serve.StateFailed {
			t.Fatalf("heavy job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = c.Status(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.gw.quotas.InflightBytes("heavy"); got != 0 {
		t.Fatalf("heavy in-flight bytes = %d after the job finished, want 0", got)
	}
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
