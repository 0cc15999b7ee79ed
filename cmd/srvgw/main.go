// srvgw is the fleet gateway: it serves the same versioned /v1 API as a
// single srvd node, but shards submissions across N nodes by their
// content-addressed CacheKey on a consistent-hash ring. Health polls eject
// and readmit nodes (riding the serve client's circuit breaker), a
// gateway-tier LRU answers repeats without a hop, work-stealing reroutes
// around overloaded shards, and jobs on a draining node are handed off to
// the next ring owner instead of failing.
//
// Usage:
//
//	srvgw -addr :8070 -nodes http://h1:8077,http://h2:8077,http://h3:8077
//	srvgw -addr :8070 -nodes ... -steal-threshold 2s -health-interval 1s
//	srvgw -smoke     # in-process 3-node fleet drill used by `make fleet-smoke`
//
// Point any srvd client at it unchanged: `srvbench -remote http://gw:8070`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"srvsim/internal/gateway"
	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
	"srvsim/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	nodesFlag := flag.String("nodes", "", "comma-separated srvd base URLs forming the fleet")
	cacheSize := flag.Int("cache", 256, "max gateway-tier cached results (LRU; negative disables)")
	stealThreshold := flag.Duration("steal-threshold", gateway.DefaultStealThreshold,
		"steal work from a shard owner whose predicted queue wait exceeds this (negative disables)")
	healthInterval := flag.Duration("health-interval", gateway.DefaultHealthInterval,
		"node health poll period (drives ejection, stealing and drain rescue)")
	maxInflight := flag.Int64("max-inflight-bytes", serve.DefaultMaxInflightBytes,
		"largest accepted request body in bytes (0 = unbounded)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0,
		"bound the gateway-tier cache by total payload bytes (0 = default 256MiB, negative = entry count only)")
	handoffBudget := flag.Int("handoff-budget", 0,
		"max extra ring owners tried per submission beyond the shard owner (0 = default 3, negative = owner only)")
	tenantRate := flag.Float64("tenant-rate", 0, "uniform per-tenant submissions/sec quota enforced at the edge (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "uniform per-tenant submission burst absorbed on top of -tenant-rate")
	tenantBytes := flag.Int64("tenant-inflight-bytes", 0, "uniform per-tenant cap on admitted-but-unfinished body bytes (0 = unlimited)")
	tenantOverrides := map[string]serve.TenantLimits{}
	flag.Func("tenant", "per-tenant quota override, repeatable: name:weight=4,rate=2,burst=8,bytes=1048576 (name \"default\" = requests without "+serve.HeaderTenant+")", func(spec string) error {
		name, l, err := serve.ParseTenantOverride(spec)
		if err != nil {
			return err
		}
		tenantOverrides[name] = l
		return nil
	})
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log line format: text|json")
	smoke := flag.Bool("smoke", false, "run the in-process fleet smoke drill (3 nodes, drain one mid-queue, assert zero lost jobs and byte-identical results) and exit")
	tenantSmoke := flag.Bool("tenant-smoke", false, "run the in-process multi-tenant isolation drill (2 nodes, flooding vs interactive tenant, quota refusals, brownout) and exit")
	flag.Parse()

	if *smoke {
		if err := runFleetSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "fleet-smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("fleet-smoke: ok")
		return
	}
	if *tenantSmoke {
		if err := runTenantSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "tenant-smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("tenant-smoke: ok")
		return
	}

	logger, err := obsv.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvgw:", err)
		os.Exit(1)
	}
	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	gw, err := gateway.New(gateway.Config{
		Nodes:            nodes,
		CacheSize:        *cacheSize,
		CacheMaxBytes:    *cacheMaxBytes,
		StealThreshold:   *stealThreshold,
		HealthInterval:   *healthInterval,
		MaxInflightBytes: *maxInflight,
		HandoffBudget:    *handoffBudget,
		TenantQuota: serve.TenantLimits{
			SubmitRate:       *tenantRate,
			SubmitBurst:      *tenantBurst,
			MaxInflightBytes: *tenantBytes,
		},
		TenantQuotas: tenantOverrides,
		Logger:       logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	gw.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: gw.Handler()}
	logger.Info("listening", "addr", ln.Addr().String(), "nodes", strings.Join(nodes, ","),
		"version", harness.CodeVersion, "schema", harness.SchemaVersion)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		logger.Error("fatal", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("signal received, shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	_ = gw.Shutdown(sctx)
	logger.Info("stopped")
}

// fleetNode is one in-process srvd node of the smoke drill.
type fleetNode struct {
	srv *serve.Server
	hs  *http.Server
	ln  net.Listener
	url string
}

// runFleetSmoke is the acceptance drill behind `make fleet-smoke`: bring up
// a 3-node in-process fleet behind a gateway, submit a mixed queue of jobs,
// drain one node mid-queue (the SIGTERM path), and assert that (a) every
// job completes — the drained node's work is handed off, none lost — and
// (b) every result is byte-identical to local execution, and (c) a traced
// job's spans all share one TraceID across client, gateway and node.
func runFleetSmoke() error {
	const nNodes = 3
	var nodes []*fleetNode
	defer func() {
		for _, n := range nodes {
			n.hs.Close()
		}
	}()
	for i := 0; i < nNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Config{NodeID: fmt.Sprintf("node-%d", i), Workers: 1})
		if err != nil {
			return err
		}
		srv.Start()
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		nodes = append(nodes, &fleetNode{srv: srv, hs: hs, ln: ln, url: "http://" + ln.Addr().String()})
	}
	var urls []string
	for _, n := range nodes {
		urls = append(urls, n.url)
	}
	gw, err := gateway.New(gateway.Config{
		Nodes:          urls,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = gw.Shutdown(sctx)
	}()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ghs := &http.Server{Handler: gw.Handler()}
	go func() { _ = ghs.Serve(gln) }()
	defer ghs.Close()
	base := "http://" + gln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rec := obsv.NewSpanRecorder(0)
	c := serve.NewClient(base, serve.WithSpanRecorder(rec))

	// A spread of requests large enough that every node owns some shard.
	b := workloads.All()[0]
	reqs := make([]harness.Request, 12)
	for i := range reqs {
		reqs[i] = harness.Request{
			Mode: harness.ModeLoop, Bench: b.Name, Seed: int64(1000 + i),
			Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
				Name: b.Name, Trip: 1 << 11, Contig: 1, Chain: 1,
				Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
			}},
		}
	}

	// Submit everything asynchronously, then drain one node mid-queue.
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, err := c.Submit(ctx, req)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		if st.ID != st.CacheKey {
			return fmt.Errorf("submit %d: job ID %q is not the cache key %q", i, st.ID, st.CacheKey)
		}
		ids[i] = st.ID
	}
	// Drain node 0 the way SIGTERM would: stop admitting, hand queued work
	// back via 503, finish in-flight. The gateway must rescue its jobs.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	go func() {
		defer dcancel()
		_ = nodes[0].srv.Drain(dctx)
		nodes[0].hs.Close()
	}()

	// Every job must reach done — the drained node's queue included.
	results := make([][]byte, len(reqs))
	for i, id := range ids {
		deadline := time.Now().Add(3 * time.Minute)
		for {
			st, err := c.Status(ctx, id)
			if err != nil {
				return fmt.Errorf("status %s: %w", id, err)
			}
			if st.State == serve.StateFailed {
				return fmt.Errorf("job %s failed: %s", id, st.Error)
			}
			if st.State == serve.StateDone {
				results[i] = st.Result
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after drain hand-off window", id, st.State)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Byte-identity: remote results equal local execution exactly.
	for i, req := range reqs {
		local, err := harness.Run(ctx, req)
		if err != nil {
			return err
		}
		want, err := json.Marshal(local)
		if err != nil {
			return err
		}
		var got harness.Result
		if err := json.Unmarshal(results[i], &got); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
		gotBytes, err := json.Marshal(got)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotBytes, want) {
			return fmt.Errorf("request %d diverged through the fleet:\n  %s\n  %s", i, gotBytes, want)
		}
	}

	// Gateway cache tier: resubmitting is a gateway-side hit.
	st, err := c.Submit(ctx, reqs[1])
	if err != nil {
		return fmt.Errorf("resubmission: %w", err)
	}
	if !st.Cached {
		return fmt.Errorf("resubmission was not a cache hit (state %s)", st.State)
	}

	// One trace end to end: the client span and the gateway's spans for a
	// fresh traced job share a single TraceID.
	fresh := harness.Request{Mode: harness.ModeLoop, Bench: b.Name, Seed: 424242}
	if _, err := c.Do(ctx, fresh); err != nil {
		return fmt.Errorf("traced job: %w", err)
	}
	client := rec.Snapshot()
	if len(client) == 0 {
		return fmt.Errorf("client recorded no spans")
	}
	trace := client[len(client)-1].Trace
	found := false
	for _, sp := range gw.Spans().Snapshot() {
		if sp.Trace == trace && sp.Name == "gateway.route" {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("gateway recorded no route span under the client's trace %s", trace)
	}

	// The drill must actually have exercised hand-off on the drained node's
	// shards, unless the ring sent node 0 nothing (possible but unlikely
	// with 13 keys; rescued+handoffs can then legitimately be zero).
	if v := gw.Registry().Lookup("gateway.jobs_submitted"); v == nil || v.Int() == 0 {
		return fmt.Errorf("gateway forwarded no jobs")
	}
	return nil
}
