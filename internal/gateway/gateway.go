package gateway

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
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
	// 0 selects serve.DefaultCacheMaxBytes; negative leaves bytes unbounded.
	CacheMaxBytes int64
	// HandoffBudget caps hand-off attempts beyond the shard owner. 0 selects
	// DefaultHandoffBudget; negative disables hand-off entirely (owner only).
	HandoffBudget int
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
}

func (c Config) withDefaults() Config {
	if c.NodeID == "" {
		c.NodeID = "srvgw"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
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
// gateway sees the key terminal, through a reply it passes on or its own
// health-poll sweep.
type rescueRecord struct {
	key      string
	body     []byte // canonical request JSON, the resubmission payload
	tenant   string // the caller's X-Srv-Tenant header, forwarded as is
	deadline time.Time
	budget   int              // remaining hand-off attempts beyond the first forward
	trace    obsv.SpanContext // trace + the gateway's route span (forwarded parent)

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
		cache:  serve.NewResultCache(cfg.CacheSize, cfg.CacheMaxBytes),
		jobs:   make(map[string]*rescueRecord),
		spans:  obsv.NewSpanRecorder(obsv.DefaultSpanCap),
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

// Start launches the health-poll loop (which also sweeps rescue records).
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
// must not stall the loop past its own timeout), then sweeps the rescue
// records.
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
	g.sweep()
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
	mux.HandleFunc("GET /v1/metrics", serve.MetricsHandler(g.reg))
	mux.HandleFunc("GET /v1/trace", serve.TraceHandler(g.spans))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.met.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// handleSubmit admits one harness.Request at the edge: mirror the node-side
// guards (size, validity), answer repeats from the gateway-tier cache, then
// route by CacheKey and forward — handing off along the ring when the owner
// is draining, over capacity (its tenant quotas included), or unreachable —
// and pass the accepting node's reply through byte for byte. ?wait=1 stays
// synchronous end to end. The whole exchange lives under one TraceID: the
// caller's traceparent (or a fresh trace) parents the gateway's route span,
// which in turn parents the owning node's admission span.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	parent, propagated := obsv.ParseTraceparent(r.Header.Get(obsv.HeaderTraceparent))
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

	body, err := serve.ReadBody(w, r, g.cfg.MaxInflightBytes)
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
	// A body this gateway has already resolved to a cached key is answered
	// by its digest alone. The alias memoises decode → Canonical → CacheKey
	// of these exact bytes, so it names the key, mode and bench the slow path
	// would; and a body it names is known to decode, so refusals below keep
	// their order.
	digest := sha256.Sum256(body)
	hit, aliased := g.cache.GetBody(digest)
	var req harness.Request
	if !aliased {
		if err := json.Unmarshal(body, &req); err != nil {
			g.met.invalid.Add(1)
			routed("invalid", nil)
			serve.WriteError(w, serve.CodeInvalidRequest, "decoding request: %v", err)
			return
		}
	}

	// The caller's deadline (relative ms) becomes absolute here; each forward
	// attempt re-derives the remaining time, so a slow hand-off walk shrinks
	// what the node is promised, never stretches it.
	var deadline time.Time
	if in, ok := serve.ParseDeadlineMS(r.Header.Get(serve.HeaderDeadlineMS)); ok {
		if in <= 0 {
			g.met.shedDeadline.Add(1)
			routed("deadline-expired", nil)
			serve.WriteError(w, serve.CodeTimeout, "deadline already expired on arrival")
			return
		}
		deadline = arrived.Add(in)
	}

	// Tier 1: the gateway's own LRU answers repeats without a network hop,
	// and keeps no record of them.
	serveHit := func(h serve.CachedReply) {
		g.met.cacheHits.Add(1)
		h.Trace, h.Node = parent.Trace, g.cfg.NodeID
		routed("cache-hit", map[string]string{"cache_key": h.Key})
		if g.logger.Enabled(r.Context(), slog.LevelInfo) {
			g.logger.Info("job served from gateway cache",
				"trace_id", parent.Trace.String(), "job", h.Key, "cache_key", h.Key)
		}
		serve.WriteCachedStatus(w, h, time.Now())
	}
	if aliased {
		serveHit(hit)
		return
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
	if data, ok := g.cache.Get(key); ok {
		modeBench := serve.AppendModeBench(nil, creq.Mode, creq.Bench)
		g.cache.Alias(key, digest, modeBench)
		serveHit(serve.CachedReply{Key: key, ModeBench: modeBench, Result: data})
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
	// The tenant is the node's to resolve and enforce: the header rides along
	// as is, and the body's tenant field rides the canonical body.
	rec := &rescueRecord{
		key: key, body: canonical, tenant: r.Header.Get(serve.HeaderTenant),
		deadline: deadline, budget: budget,
		trace: obsv.SpanContext{Trace: parent.Trace, Span: route.Span},
	}

	wait := r.URL.Query().Get("wait")
	syncWait := wait == "1" || wait == "true"
	resp, owner := g.handOff(r.Context(), rec, "", syncWait)
	if owner == nil {
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
	rec.node = owner.name
	if !g.observeReply(key, resp) && resp.Status/100 == 2 {
		g.track(rec)
	}
	routed("forwarded", map[string]string{
		"node": owner.name, "job": key, "cache_key": key, "status": fmt.Sprint(resp.Status)})
	g.logger.Info("job routed", "trace_id", parent.Trace.String(), "job", key,
		"node", owner.name, "cache_key", key, "sync", syncWait, "status", resp.Status)
	g.forwardRaw(w, resp)
}

// track keeps rec as its key's rescue record, unless one is kept already or
// the key finished meanwhile (its result reached the gateway cache).
func (g *Gateway) track(rec *rescueRecord) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.jobs[rec.key]; dup {
		return
	}
	if _, done := g.cache.Get(rec.key); !done {
		g.jobs[rec.key] = rec
	}
}

// observe settles key when a node reports it terminal: a done result is
// cached at the gateway tier and the key's rescue record is dropped. It
// reports whether the key is terminal.
func (g *Gateway) observe(key string, st serve.JobStatus) bool {
	if st.State != serve.StateDone && st.State != serve.StateFailed {
		return false
	}
	if st.State == serve.StateDone && len(st.Result) > 0 {
		g.cache.Put(key, st.Result)
	}
	g.forget(key)
	return true
}

// forget drops key's rescue record, if any.
func (g *Gateway) forget(key string) {
	g.mu.Lock()
	delete(g.jobs, key)
	g.mu.Unlock()
}

// observeReply observes the JobStatus in a node's reply about key: the body
// of a 2xx, or the job a failed ?wait=1 submission's error envelope carries.
// The reply itself is left untouched for the caller to pass on.
func (g *Gateway) observeReply(key string, resp *serve.APIResponse) bool {
	var st serve.JobStatus
	if resp.Status/100 == 2 {
		if json.Unmarshal(resp.Body, &st) != nil {
			return false
		}
	} else {
		var env struct {
			Error serve.APIError `json:"error"`
		}
		if json.Unmarshal(resp.Body, &env) != nil || env.Error.Job == nil {
			return false
		}
		st = *env.Error.Job
	}
	return g.observe(key, st)
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

// handOff is the one hand-off walk, for first forwards and rescues alike: it
// forwards rec's submission along route(key, exclude), capped at the first
// node plus rec.budget successors, until a node gives a reply that does not
// hand off. A draining (503) or over-capacity (429) answer and any transport
// failure move on to the next ring owner — the drain-aware hand-off: a
// queued job on a dying node is resubmitted, not bounced, and determinism +
// content addressing make the duplicate safe. Returns (resp, node) for the
// node whose reply stands, whatever its status; (lastResp, nil) when every
// candidate handed off or the deadline ran out; (nil, nil) when no candidate
// could be reached at all.
func (g *Gateway) handOff(ctx context.Context, rec *rescueRecord, exclude string, syncWait bool) (*serve.APIResponse, *node) {
	path := "/v1/sims"
	perCall := serve.DefaultPollTimeout
	if syncWait {
		path += "?wait=1"
		perCall = 0 // long poll: simulations can run for minutes
	}
	header := rec.header()
	cands := g.route(rec.key, exclude)
	// The walk is bounded by the hand-off budget: the first node plus at most
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
	header.Set(obsv.HeaderTraceparent, rec.trace.Traceparent())
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
// passes through the reply of the node refresh asks (a 404 included).
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	if data, ok := g.cache.Get(key); ok {
		serve.WriteCachedStatus(w, serve.CachedReply{Key: key, Node: g.cfg.NodeID, Result: data}, time.Now())
		return
	}
	resp, err := g.refresh(r.Context(), key, g.record(key))
	if err != nil {
		serve.WriteErrorRetry(w, serve.CodeDraining, g.cfg.HealthInterval, "%v", err)
		return
	}
	g.forwardRaw(w, resp)
}

// refresh asks key's owner — its rescue record's owner, else its ring owner —
// for the key's status, observes the reply and returns it. An unreachable or
// forgetful (404) owner of a live record triggers an immediate rescue, and
// the new owner's reply stands in, with the 200 a status poll answers.
func (g *Gateway) refresh(ctx context.Context, key string, rec *rescueRecord) (*serve.APIResponse, error) {
	owner := g.ownerOf(key, rec)
	resp, err := owner.client.RoundTrip(ctx, http.MethodGet, "/v1/sims/"+key, nil, nil, serve.DefaultPollTimeout)
	if rec != nil && (err != nil || resp.Status == http.StatusNotFound) {
		// The owner is gone (or restarted without its journal): resubmit to
		// the next ring owner and report the job there.
		if resp = g.rescue(rec, owner.name); resp == nil {
			return nil, fmt.Errorf("owner of job %s unreachable and no eligible node to rescue to", key)
		}
		resp.Status = http.StatusOK
		return resp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("owner of job %s unreachable: %v", key, err)
	}
	g.observeReply(key, resp)
	return resp, nil
}

// handleStream proxies the NDJSON stream of the node handleStatus would ask,
// line by line and byte for byte, observing the terminal JobStatus. A key
// the gateway cache holds answers at once with its own done status.
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
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var st serve.JobStatus
		if json.Unmarshal(line, &st) == nil && st.ID == key && st.State != "" {
			g.observe(key, st)
		}
		_, _ = w.Write(append(line, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// sweep refreshes every rescue record, without holding g.mu across the
// calls. A key whose owner has become ineligible (draining, ejected, or
// failing health polls) is rescued — the drain-aware hand-off for
// asynchronous jobs whose submitter is long gone. Any other key is refreshed
// as a status poll would be, so a job that finished with nobody polling
// through the gateway still settles its record.
func (g *Gateway) sweep() {
	g.mu.RLock()
	recs := make([]*rescueRecord, 0, len(g.jobs))
	for _, rec := range g.jobs {
		recs = append(recs, rec)
	}
	g.mu.RUnlock()
	for _, rec := range recs {
		owner := rec.owner()
		if n := g.nodes[owner]; n != nil && n.eligible() {
			// A failed refresh leaves the record for the next round.
			_, _ = g.refresh(g.ctx, rec.key, rec)
			continue
		}
		g.rescue(rec, owner)
	}
}

// rescue resubmits one live key by the hand-off walk, excluding its old
// owner, and returns the new owner's observed 2xx reply, or nil when no node
// took it (the record stays for the next sweep). The duplicate submission is
// safe: the request is content-addressed and the simulator deterministic, so
// whichever node finishes first populates the caches with the byte-identical
// Result. A record whose deadline has passed is dropped instead: nobody waits
// for it, no node would start it, and the walk would never take it again.
func (g *Gateway) rescue(rec *rescueRecord, exclude string) *serve.APIResponse {
	if !rec.deadline.IsZero() && !time.Now().Before(rec.deadline) {
		g.forget(rec.key)
		g.logger.Info("job dropped: deadline expired before rescue", "job", rec.key, "from", exclude)
		return nil
	}
	resp, n := g.handOff(g.ctx, rec, exclude, false)
	if n == nil || resp.Status/100 != 2 {
		g.logger.Warn("job stranded: no eligible node to rescue to", "job", rec.key, "from", exclude)
		return nil
	}
	g.met.rescued.Add(1)
	rec.setOwner(n.name)
	g.observeReply(rec.key, resp)
	g.logger.Info("job rescued", "job", rec.key, "from", exclude, "to", n.name,
		"trace_id", rec.trace.Trace.String())
	return resp
}

// Health is the gateway's /v1/healthz payload: the node-compatible summary
// (so srvd-aware tooling reads it unchanged) plus per-node detail.
type Health struct {
	serve.Health
	Nodes []NodeStatus `json:"nodes"`
}

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
		step := max(slices.Index(serve.BrownoutNames[:], n.brownout()), 0)
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
	h.Brownout = serve.BrownoutNames[g.minBrownoutStep()]
	serve.WriteJSON(w, http.StatusOK, h)
}
