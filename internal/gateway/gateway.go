package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

// DefaultStealThreshold is the predicted-wait level past which the gateway
// steals work from a shard's owner: long enough that cache locality wins on
// a healthy fleet, short enough that one hot shard cannot queue minutes of
// work while its neighbours idle.
const DefaultStealThreshold = 2 * time.Second

// DefaultHealthInterval paces the per-node health polls that feed routing
// eligibility, work-stealing and drain rescue.
const DefaultHealthInterval = time.Second

// DefaultCacheMaxBytes bounds the gateway-tier result cache payload: entry
// count alone lets a few multi-MB benchmark Results blow any sensible memory
// budget, so the byte bound is on by default at the edge.
const DefaultCacheMaxBytes = 256 << 20

// DefaultHandoffBudget caps how many ring successors beyond the owner a
// submission may be handed off to. The caller's X-Srv-Retry-Budget can lower
// it further — never raise it — so client retries and gateway hand-offs
// cannot multiply into a fleet-wide submission storm.
const DefaultHandoffBudget = 3

// Config sizes the gateway.
type Config struct {
	// Nodes are the srvd base URLs forming the fleet (e.g.
	// "http://127.0.0.1:8077"). The address is the node's ring identity.
	Nodes []string
	// NodeID names the gateway itself in statuses it synthesises (gateway
	// cache hits). Default "srvgw".
	NodeID string
	// VirtualNodes is the ring replication factor (0 = DefaultVirtualNodes).
	VirtualNodes int
	// CacheSize bounds the gateway-tier result cache (LRU). Default 256;
	// negative disables it (node caches still apply).
	CacheSize int
	// CacheMaxBytes bounds the gateway-tier cache by total payload bytes.
	// 0 selects DefaultCacheMaxBytes; negative leaves bytes unbounded.
	CacheMaxBytes int64
	// HandoffBudget caps hand-off attempts beyond the shard owner. 0 selects
	// DefaultHandoffBudget; negative disables hand-off entirely (owner only).
	HandoffBudget int
	// TenantQuota is the edge-enforced per-tenant quota applied to tenants
	// without an override: submission rate and in-flight body bytes. Nodes
	// enforce their own quotas again behind the gateway (the gateway guards
	// the edge window; nodes guard queue residency). Zero = unlimited.
	TenantQuota serve.TenantLimits
	// TenantQuotas overrides TenantQuota for named tenants.
	TenantQuotas map[string]serve.TenantLimits
	// StealThreshold: when the owning node's predicted queue wait exceeds
	// this, the submission is routed to the least-loaded eligible node
	// instead. 0 selects DefaultStealThreshold; negative disables stealing.
	StealThreshold time.Duration
	// HealthInterval paces node health polls (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// MaxInflightBytes caps a submission body, mirroring the node-side guard
	// so oversized requests die at the edge. 0 selects
	// serve.DefaultMaxInflightBytes; negative disables.
	MaxInflightBytes int64
	// Logger receives the gateway's structured logs. nil silences them.
	Logger *slog.Logger
	// SpanCap bounds the gateway's span buffer (0 = obsv.DefaultSpanCap).
	SpanCap int
}

func (c Config) withDefaults() Config {
	if c.NodeID == "" {
		c.NodeID = "srvgw"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = DefaultCacheMaxBytes
	} else if c.CacheMaxBytes < 0 {
		c.CacheMaxBytes = 0
	}
	if c.HandoffBudget == 0 {
		c.HandoffBudget = DefaultHandoffBudget
	} else if c.HandoffBudget < 0 {
		c.HandoffBudget = 0
	}
	if c.StealThreshold == 0 {
		c.StealThreshold = DefaultStealThreshold
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = serve.DefaultMaxInflightBytes
	}
	return c
}

// rescueRecord is what the gateway keeps for one forwarded key that is still
// live on its owner: everything needed to resubmit it elsewhere if the owner
// drains or dies. The canonical body is that fault-recovery state — the
// request is content-addressed and the simulator deterministic, so any node
// turns it into the byte-identical result. The record is deleted once the
// gateway sees the key terminal.
type rescueRecord struct {
	key       string
	body      []byte // canonical request JSON, the resubmission payload
	tenant    string // submitting principal, forwarded as X-Srv-Tenant
	bodyBytes int64  // charged against the tenant's in-flight-bytes quota
	deadline  time.Time
	budget    int              // remaining hand-off attempts beyond the first forward
	trace     obsv.SpanContext // trace + the gateway's route span (forwarded parent)

	mu   sync.Mutex
	node string // owning node's ring name
}

func (rec *rescueRecord) owner() string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.node
}

func (rec *rescueRecord) setOwner(node string) {
	rec.mu.Lock()
	rec.node = node
	rec.mu.Unlock()
}

// Gateway shards submissions across the fleet and forwards the /v1 surface.
// Construct with New, install Handler, call Start, Shutdown on the way out.
type Gateway struct {
	cfg    Config
	ring   *Ring
	nodes  map[string]*node
	order  []string // configured node order, for stable iteration
	cache  *serve.ResultCache
	quotas *serve.Quotas
	met    gwMetrics
	reg    *obsv.Registry
	spans  *obsv.SpanRecorder
	logger *slog.Logger

	// jobs holds one rescue record per forwarded live key. Cache hits and
	// terminal replies add none.
	mu   sync.RWMutex
	jobs map[string]*rescueRecord

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started time.Time
}

// New builds a stopped gateway over the configured fleet; call Start to
// launch the health-poll loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("gateway: no nodes configured")
	}
	g := &Gateway{
		cfg:    cfg,
		ring:   NewRing(cfg.VirtualNodes),
		nodes:  make(map[string]*node, len(cfg.Nodes)),
		cache:  serve.NewResultCacheBytes(cfg.CacheSize, cfg.CacheMaxBytes),
		quotas: serve.NewQuotas(cfg.TenantQuota, cfg.TenantQuotas),
		jobs:   make(map[string]*rescueRecord),
		spans:  obsv.NewSpanRecorder(cfg.SpanCap),
		logger: cfg.Logger,
	}
	if g.logger == nil {
		g.logger = obsv.DiscardLogger()
	}
	for _, addr := range cfg.Nodes {
		if _, dup := g.nodes[addr]; dup {
			return nil, fmt.Errorf("gateway: node %q configured twice", addr)
		}
		g.nodes[addr] = newNode(addr)
		g.order = append(g.order, addr)
		g.ring.Add(addr)
	}
	g.reg = g.met.registry(g)
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g, nil
}

// Registry exposes the gateway metrics (for embedding in other exporters).
func (g *Gateway) Registry() *obsv.Registry { return g.reg }

// Spans exposes the gateway's span recorder.
func (g *Gateway) Spans() *obsv.SpanRecorder { return g.spans }

// Start launches the health-poll loop (which also drives drain rescue).
func (g *Gateway) Start() {
	g.started = time.Now()
	g.pollOnce() // seed eligibility before the first request arrives
	g.wg.Add(1)
	go g.pollLoop()
}

// Shutdown stops the poll loop. In-flight forwards run to their own
// completion — the gateway holds no queue of its own to drain.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.cancel()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *Gateway) pollLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
			g.pollOnce()
		}
	}
}

// pollOnce refreshes every node's health snapshot concurrently (a dead node
// must not stall the loop past its own timeout), then rescues jobs stranded
// on ineligible nodes.
func (g *Gateway) pollOnce() {
	g.met.healthPolls.Add(1)
	var wg sync.WaitGroup
	for _, name := range g.order {
		n := g.nodes[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.poll(g.ctx, g.cfg.HealthInterval)
		}()
	}
	wg.Wait()
	g.rescueOrphans()
}

// route returns the eligible nodes for key in hand-off order: ring
// successors of the key's owner, skipping ejected/draining/unhealthy nodes
// (and exclude), with one work-stealing adjustment — if the owner's
// predicted queue wait exceeds the threshold, the least-loaded eligible
// node is promoted to the front instead.
func (g *Gateway) route(key, exclude string) []*node {
	names := g.ring.Successors(key, g.ring.Len())
	cands := make([]*node, 0, len(names))
	for _, nm := range names {
		if nm == exclude {
			continue
		}
		if n := g.nodes[nm]; n != nil && n.eligible() {
			cands = append(cands, n)
		}
	}
	if th := g.cfg.StealThreshold; th > 0 && len(cands) > 1 {
		if owner := cands[0]; owner.predictedWaitMS() > float64(th.Milliseconds()) {
			best := 0
			for i, n := range cands {
				if n.predictedWaitMS() < cands[best].predictedWaitMS() {
					best = i
				}
			}
			if best != 0 {
				g.met.steals.Add(1)
				cands[0], cands[best] = cands[best], cands[0]
			}
		}
	}
	return cands
}

// Handler returns the gateway's /v1 API mux — the same surface a single
// srvd node serves, so clients (and srvbench -remote) cannot tell the
// difference.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sims", g.handleSubmit)
	mux.HandleFunc("GET /v1/sims/{id}", g.handleStatus)
	mux.HandleFunc("GET /v1/sims/{id}/stream", g.handleStream)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/trace", g.handleTrace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.met.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// handleSubmit admits one harness.Request at the edge: mirror the node-side
// guards (size, validity), answer repeats from the gateway-tier cache, then
// route by CacheKey and forward — handing off along the ring when the owner
// is draining, over capacity, or unreachable. ?wait=1 stays synchronous end
// to end. The whole exchange lives under one TraceID: the caller's
// traceparent (or a fresh trace) parents the gateway's route span, which in
// turn parents the owning node's admission span.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	parent, propagated := obsv.ParseTraceparent(r.Header.Get("traceparent"))
	if !propagated {
		parent = obsv.NewTrace()
	}
	route := parent.Child()
	routed := func(outcome string, attrs map[string]string) {
		if attrs == nil {
			attrs = map[string]string{}
		}
		attrs["outcome"] = outcome
		g.spans.Record(obsv.Span{
			Trace: parent.Trace, ID: route.Span, Parent: parent.Span,
			Name: "gateway.route", Start: arrived, End: time.Now(), Attrs: attrs,
		})
	}

	if g.cfg.MaxInflightBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxInflightBytes)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			g.met.shedOversize.Add(1)
			routed("oversize", nil)
			serve.WriteError(w, serve.CodeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		g.met.invalid.Add(1)
		routed("invalid", nil)
		serve.WriteError(w, serve.CodeInvalidRequest, "reading request: %v", err)
		return
	}
	var req harness.Request
	if err := json.Unmarshal(body, &req); err != nil {
		g.met.invalid.Add(1)
		routed("invalid", nil)
		serve.WriteError(w, serve.CodeInvalidRequest, "decoding request: %v", err)
		return
	}

	// Tenant identity: the header overrides the body, and the resolved value
	// is stamped back into the request so the owning node sees the same
	// principal the gateway accounted for.
	tenant := req.Tenant
	if h := r.Header.Get(serve.HeaderTenant); h != "" {
		tenant = h
	}
	req.Tenant = tenant
	if ok, wait := g.quotas.AdmitRate(tenant); !ok {
		g.met.shedQuota.Add(1)
		routed("quota-rate", map[string]string{"tenant": tenant})
		serve.WriteErrorRetry(w, serve.CodeOverCapacity, wait,
			"tenant %q over submission rate quota", tenantLabel(tenant))
		return
	}

	// The caller's deadline (relative ms) becomes absolute here; each forward
	// attempt re-derives the remaining time, so a slow hand-off walk shrinks
	// what the node is promised, never stretches it.
	var deadline time.Time
	if h := r.Header.Get(serve.HeaderDeadlineMS); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
			if ms <= 0 {
				g.met.shedDeadline.Add(1)
				routed("deadline-expired", nil)
				serve.WriteError(w, serve.CodeTimeout, "deadline already expired on arrival")
				return
			}
			deadline = arrived.Add(time.Duration(ms) * time.Millisecond)
		}
	}

	creq, err := req.Canonical()
	if err != nil {
		g.met.invalid.Add(1)
		routed("invalid", nil)
		serve.WriteError(w, serve.CodeInvalidRequest, "%v", err)
		return
	}
	key, err := creq.CacheKey()
	if err != nil {
		routed("hash-error", nil)
		serve.WriteError(w, serve.CodeInternal, "hashing request: %v", err)
		return
	}

	// Tier 1: the gateway's own LRU answers repeats without a network hop,
	// and keeps no record of them.
	if data, ok := g.cache.Get(key); ok {
		g.met.cacheHits.Add(1)
		st := serve.CachedStatus(key, data, time.Now())
		st.Mode, st.Bench, st.Node = creq.Mode, creq.Bench, g.cfg.NodeID
		st.TraceID = parent.Trace.String()
		routed("cache-hit", map[string]string{"cache_key": key})
		g.logger.Info("job served from gateway cache",
			"trace_id", st.TraceID, "job", key, "cache_key", key)
		serve.WriteJSON(w, http.StatusOK, st)
		return
	}
	g.met.cacheMisses.Add(1)

	canonical, err := json.Marshal(creq)
	if err != nil {
		routed("encode-error", nil)
		serve.WriteError(w, serve.CodeInternal, "encoding request: %v", err)
		return
	}
	// The hand-off budget is the configured cap, lowered (never raised) by
	// the caller's remaining retry budget: a client on its last attempt gets
	// one forward and no storm.
	budget := g.cfg.HandoffBudget
	if h := r.Header.Get(serve.HeaderRetryBudget); h != "" {
		if b, err := strconv.Atoi(h); err == nil && b >= 0 && b < budget {
			budget = b
		}
	}
	rec := &rescueRecord{
		key: key, body: canonical, tenant: tenant, bodyBytes: int64(len(body)),
		deadline: deadline, budget: budget,
		trace: obsv.SpanContext{Trace: parent.Trace, Span: route.Span},
	}

	// In-flight-bytes quota, charged only for work that will start on a node:
	// a key with a rescue record is already charged, and its owner coalesces
	// the repeat onto the live job. The charge is returned when the gateway
	// sees the key terminal, or on refusal below.
	g.mu.RLock()
	_, joined := g.jobs[key]
	g.mu.RUnlock()
	if joined {
		rec.bodyBytes = 0
	} else if !g.quotas.AdmitBytes(tenant, rec.bodyBytes) {
		g.met.shedQuota.Add(1)
		routed("quota-bytes", map[string]string{"tenant": tenant})
		serve.WriteErrorRetry(w, serve.CodeOverCapacity, g.cfg.HealthInterval,
			"tenant %q over in-flight bytes quota", tenantLabel(tenant))
		return
	}

	wait := r.URL.Query().Get("wait")
	syncWait := wait == "1" || wait == "true"
	resp, owner := g.forwardSubmit(r.Context(), rec, syncWait)
	if owner == nil {
		g.quotas.ReleaseBytes(tenant, rec.bodyBytes)
		if !deadline.IsZero() && time.Now().After(deadline) {
			g.met.shedDeadline.Add(1)
			routed("deadline-expired", map[string]string{"cache_key": key})
			serve.WriteError(w, serve.CodeTimeout, "deadline expired during forwarding")
			return
		}
		if resp != nil {
			// Every candidate refused in a way hand-off cannot help; the last
			// typed envelope is forwarded untouched.
			routed("refused", map[string]string{"cache_key": key, "status": fmt.Sprint(resp.Status)})
			g.forwardRaw(w, resp)
			return
		}
		g.met.noNodes.Add(1)
		routed("no-nodes", map[string]string{"cache_key": key})
		serve.WriteErrorRetry(w, serve.CodeDraining, g.cfg.HealthInterval,
			"no eligible node for shard (fleet draining or unreachable)")
		return
	}

	g.met.submitted.Add(1)
	if resp.Status/100 != 2 {
		// A terminal failure envelope (failed ?wait=1 job) forwards untouched
		// and settles the key.
		g.quotas.ReleaseBytes(tenant, rec.bodyBytes)
		var env struct {
			Error serve.APIError `json:"error"`
		}
		if json.Unmarshal(resp.Body, &env) == nil && env.Error.Job != nil {
			g.settle(key)
		}
		routed("forwarded-error", map[string]string{
			"node": owner.name, "cache_key": key, "status": fmt.Sprint(resp.Status)})
		g.forwardRaw(w, resp)
		return
	}

	var st serve.JobStatus
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		g.quotas.ReleaseBytes(tenant, rec.bodyBytes)
		routed("decode-error", map[string]string{"node": owner.name})
		serve.WriteError(w, serve.CodeInternal, "decoding node response: %v", err)
		return
	}
	st.Node = owner.name
	rec.node = owner.name
	if g.observe(key, st) {
		g.quotas.ReleaseBytes(tenant, rec.bodyBytes)
	} else {
		g.track(rec)
	}
	routed("forwarded", map[string]string{"node": owner.name, "job": key, "cache_key": key})
	g.logger.Info("job routed", "trace_id", parent.Trace.String(), "job", key,
		"node", owner.name, "cache_key", key, "sync", syncWait)
	serve.WriteJSON(w, resp.Status, st)
}

// track keeps rec as its key's rescue record. When one is kept already, or
// the key finished meanwhile (its result reached the gateway cache), rec's
// byte charge is returned instead.
func (g *Gateway) track(rec *rescueRecord) {
	g.mu.Lock()
	_, dup := g.jobs[rec.key]
	if !dup {
		if _, dup = g.cache.Get(rec.key); !dup {
			g.jobs[rec.key] = rec
		}
	}
	g.mu.Unlock()
	if dup {
		g.quotas.ReleaseBytes(rec.tenant, rec.bodyBytes)
	}
}

// settle drops key's rescue record, if any, and returns its byte charge.
func (g *Gateway) settle(key string) {
	g.mu.Lock()
	rec := g.jobs[key]
	delete(g.jobs, key)
	g.mu.Unlock()
	if rec != nil {
		g.quotas.ReleaseBytes(rec.tenant, rec.bodyBytes)
	}
}

// observe settles key when a node reports it terminal, caching a done result
// at the gateway tier. It reports whether the key is terminal.
func (g *Gateway) observe(key string, st serve.JobStatus) bool {
	if st.State != serve.StateDone && st.State != serve.StateFailed {
		return false
	}
	if st.State == serve.StateDone && len(st.Result) > 0 {
		g.cache.Put(key, st.Result)
	}
	g.settle(key)
	return true
}

// record returns key's rescue record, or nil.
func (g *Gateway) record(key string) *rescueRecord {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.jobs[key]
}

// ownerOf is the node to ask about key: its rescue record's owner, else the
// key's ring owner.
func (g *Gateway) ownerOf(key string, rec *rescueRecord) *node {
	if rec != nil {
		if n := g.nodes[rec.owner()]; n != nil {
			return n
		}
	}
	return g.nodes[g.ring.Owner(key)]
}

// forwardSubmit walks the record's hand-off order, forwarding the submission
// until a node accepts it. A draining (503) or over-capacity (429) answer
// and any transport failure move on to the next ring owner — this is the
// drain-aware hand-off: a queued job on a dying node is resubmitted, not
// bounced, and determinism + content addressing make the duplicate safe.
// Returns (resp, owner) on acceptance; (lastResp, nil) when every candidate
// refused with a non-hand-offable error; (nil, nil) when no candidate could
// be reached at all.
func (g *Gateway) forwardSubmit(ctx context.Context, rec *rescueRecord, syncWait bool) (*serve.APIResponse, *node) {
	path := "/v1/sims"
	perCall := serve.DefaultPollTimeout
	if syncWait {
		path += "?wait=1"
		perCall = 0 // long poll: simulations can run for minutes
	}
	header := rec.header()
	cands := g.route(rec.key, "")
	// The walk is bounded by the hand-off budget: the owner plus at most
	// rec.budget successors, so a refused submission cannot storm the fleet.
	if max := 1 + rec.budget; len(cands) > max {
		cands = cands[:max]
	}
	var last *serve.APIResponse
	for attempt, n := range cands {
		if attempt > 0 {
			g.met.handoffs.Add(1)
		}
		if !rec.deadline.IsZero() {
			// Re-derive the remaining time per attempt: a slow hand-off walk
			// shrinks what the node is promised. An exhausted deadline ends
			// the walk — nobody is waiting for the result any more.
			ms := time.Until(rec.deadline).Milliseconds()
			if ms <= 0 {
				return last, nil
			}
			header.Set(serve.HeaderDeadlineMS, strconv.FormatInt(ms, 10))
		}
		resp, err := n.client.RoundTrip(ctx, http.MethodPost, path, header, rec.body, perCall)
		if err != nil {
			if ctx.Err() != nil {
				return last, nil
			}
			g.logger.Warn("node unreachable, handing off",
				"node", n.name, "job", rec.key, "err", err)
			continue
		}
		switch resp.Status {
		case http.StatusServiceUnavailable:
			n.markDraining()
			g.logger.Info("node draining, handing off", "node", n.name, "job", rec.key)
			last = resp
			continue
		case http.StatusTooManyRequests:
			last = resp
			continue
		}
		return resp, n
	}
	return last, nil
}

// header is the forwarded submission's header set: the trace (the gateway's
// route span as parent), the tenant, and a zero retry budget — nodes must not
// hand off further, the gateway owns the walk.
func (rec *rescueRecord) header() http.Header {
	header := http.Header{}
	header.Set("Content-Type", "application/json")
	header.Set("traceparent", rec.trace.Traceparent())
	if rec.tenant != "" {
		header.Set(serve.HeaderTenant, rec.tenant)
	}
	header.Set(serve.HeaderRetryBudget, "0")
	return header
}

// forwardRaw relays a node response verbatim — body bytes, status, and the
// headers that matter (the typed error envelope's Retry-After especially).
func (g *Gateway) forwardRaw(w http.ResponseWriter, resp *serve.APIResponse) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// handleStatus answers a job ID (its CacheKey) from the gateway cache, else
// from its rescue record's owner, else from the key's ring owner, passing a
// node's reply through (a 404 included) with the owner stamped. An
// unreachable or forgetful owner of a live record triggers an immediate
// rescue.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	if data, ok := g.cache.Get(key); ok {
		st := serve.CachedStatus(key, data, time.Now())
		st.Node = g.cfg.NodeID
		serve.WriteJSON(w, http.StatusOK, st)
		return
	}
	rec := g.record(key)
	owner := g.ownerOf(key, rec)
	resp, err := owner.client.RoundTrip(r.Context(), http.MethodGet, "/v1/sims/"+key, nil, nil, serve.DefaultPollTimeout)
	if rec != nil && (err != nil || resp.Status == http.StatusNotFound) {
		// The owner is gone (or restarted without its journal): resubmit to
		// the next ring owner and report the job there.
		if st, ok := g.rescue(rec, owner.name); ok {
			serve.WriteJSON(w, http.StatusOK, st)
			return
		}
		serve.WriteErrorRetry(w, serve.CodeDraining, g.cfg.HealthInterval,
			"owner of job %s unreachable and no eligible node to rescue to", key)
		return
	}
	if err != nil {
		serve.WriteErrorRetry(w, serve.CodeDraining, g.cfg.HealthInterval,
			"owner of job %s unreachable: %v", key, err)
		return
	}
	if resp.Status/100 != 2 {
		g.forwardRaw(w, resp)
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		serve.WriteError(w, serve.CodeInternal, "decoding node response: %v", err)
		return
	}
	st.Node = owner.name
	g.observe(key, st)
	serve.WriteJSON(w, http.StatusOK, st)
}

// handleStream proxies the NDJSON stream of the node handleStatus would ask,
// line by line, stamping the owner on the terminal JobStatus. A key the
// gateway cache holds answers at once with its done status.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	if data, ok := g.cache.Get(key); ok {
		st := serve.CachedStatus(key, data, time.Now())
		st.Node = g.cfg.NodeID
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(st)
		return
	}
	owner := g.ownerOf(key, g.record(key))
	hreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		owner.client.Base()+"/v1/sims/"+key+"/stream", nil)
	if err != nil {
		serve.WriteError(w, serve.CodeInternal, "building stream request: %v", err)
		return
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		serve.WriteError(w, serve.CodeDraining, "owner of job %s unreachable: %v", key, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		g.forwardRaw(w, &serve.APIResponse{Status: resp.StatusCode, Header: resp.Header, Body: body})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var st serve.JobStatus
		if err := json.Unmarshal(line, &st); err == nil && st.ID == key && st.State != "" {
			st.Node = owner.name
			g.observe(key, st)
			_ = enc.Encode(st)
		} else {
			_, _ = w.Write(append(line, '\n'))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// rescueOrphans resubmits every live key whose owner has become ineligible
// (draining, ejected, or failing health polls) to the next ring owner — the
// drain-aware hand-off for asynchronous jobs whose submitter is long gone.
func (g *Gateway) rescueOrphans() {
	g.mu.RLock()
	recs := make([]*rescueRecord, 0, len(g.jobs))
	for _, rec := range g.jobs {
		recs = append(recs, rec)
	}
	g.mu.RUnlock()
	for _, rec := range recs {
		owner := rec.owner()
		if n := g.nodes[owner]; n != nil && n.eligible() {
			continue
		}
		g.rescue(rec, owner)
	}
}

// rescue resubmits one live key to the next eligible ring owner after
// exclude and returns that node's status for it. The duplicate submission is
// safe: the request is content-addressed and the simulator deterministic, so
// whichever node finishes first populates the caches with the byte-identical
// Result.
func (g *Gateway) rescue(rec *rescueRecord, exclude string) (serve.JobStatus, bool) {
	header := rec.header()
	cands := g.route(rec.key, exclude)
	if max := 1 + g.cfg.HandoffBudget; len(cands) > max {
		cands = cands[:max]
	}
	for _, n := range cands {
		ctx, cancel := context.WithTimeout(g.ctx, serve.DefaultPollTimeout)
		resp, err := n.client.RoundTrip(ctx, http.MethodPost, "/v1/sims", header, rec.body, serve.DefaultPollTimeout)
		cancel()
		if err != nil {
			continue
		}
		if resp.Status == http.StatusServiceUnavailable {
			n.markDraining()
		}
		if resp.Status/100 != 2 {
			continue
		}
		var st serve.JobStatus
		if err := json.Unmarshal(resp.Body, &st); err != nil {
			continue
		}
		g.met.rescued.Add(1)
		rec.setOwner(n.name)
		st.Node = n.name
		g.observe(rec.key, st)
		g.logger.Info("job rescued", "job", rec.key, "from", exclude, "to", n.name,
			"trace_id", rec.trace.Trace.String())
		return st, true
	}
	g.logger.Warn("job stranded: no eligible node to rescue to", "job", rec.key, "from", exclude)
	return serve.JobStatus{}, false
}

// Health is the gateway's /v1/healthz payload: the node-compatible summary
// (so srvd-aware tooling reads it unchanged) plus per-node detail.
type Health struct {
	serve.Health
	Nodes []NodeStatus `json:"nodes"`
}

// brownoutSteps orders the serve brownout names for fleet aggregation;
// brownoutStepNames is its inverse.
var (
	brownoutSteps     = map[string]int{"": 0, "shed-low": 1, "no-new-work": 2, "cached-only": 3}
	brownoutStepNames = [...]string{"", "shed-low", "no-new-work", "cached-only"}
)

// minBrownoutStep is the fleet's effective brownout: the lowest step among
// eligible nodes, because a submission is routed to the least-degraded node
// that will take it. No eligible nodes reads as 0 — "draining" already says
// everything.
func (g *Gateway) minBrownoutStep() int {
	min := -1
	for _, name := range g.order {
		n := g.nodes[name]
		if !n.eligible() {
			continue
		}
		step := brownoutSteps[n.brownout()]
		if min < 0 || step < min {
			min = step
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Health: serve.Health{
			Status:        "ok",
			State:         "serving",
			SchemaVersion: harness.SchemaVersion,
			CodeVersion:   harness.CodeVersion,
			UptimeSeconds: time.Since(g.started).Seconds(),
			CacheEntries:  g.cache.Len(),
			Node:          g.cfg.NodeID,
		},
	}
	eligible := 0
	minWait := -1.0
	for _, name := range g.order {
		n := g.nodes[name]
		st := n.status()
		h.Nodes = append(h.Nodes, st)
		h.Workers += st.Workers
		h.QueueDepth += st.QueueDepth
		h.JournalLag += st.JournalLag
		if n.eligible() {
			eligible++
			if minWait < 0 || st.PredictedWaitMS < minWait {
				minWait = st.PredictedWaitMS
			}
		}
	}
	// The gateway's own predicted wait is the best any routed submission
	// could see: the least-loaded eligible node's.
	if minWait > 0 {
		h.PredictedWaitMS = minWait
	}
	if eligible == 0 {
		h.State = "draining"
	}
	h.Brownout = brownoutStepNames[g.minBrownoutStep()]
	serve.WriteJSON(w, http.StatusOK, h)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obsv.PromContentType)
		_ = g.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = g.reg.WriteJSON(w)
}

func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		_ = g.spans.WriteTrace(w)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = g.spans.WriteNDJSON(w)
}

// tenantLabel renders a tenant identity for humans: the default tenant's
// empty string reads as "default".
func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}
