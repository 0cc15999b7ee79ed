// srvgw is the fleet gateway: it serves the same versioned /v1 API as a
// single srvd node, but shards submissions across N nodes by their
// content-addressed CacheKey on a consistent-hash ring. Health polls eject
// and readmit nodes (riding the serve client's circuit breaker), a
// gateway-tier LRU answers repeats without a hop, work-stealing reroutes
// around overloaded shards, and jobs on a draining node are handed off to
// the next ring owner instead of failing. Node replies pass through byte for
// byte, so a job status names the node that ran it by that node's own
// -node-id. The gateway enforces no tenant quotas: each node enforces its
// own, so give every node its -node-id and its share of each quota.
//
// Usage:
//
//	srvgw -addr :8070 -nodes http://h1:8077,http://h2:8077,http://h3:8077
//	srvgw -addr :8070 -nodes ... -steal-threshold 2s -health-interval 1s
//
// Point any srvd client at it unchanged: `srvbench -remote http://gw:8070`.
package main

import (
	"context"
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
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log line format: text|json")
	flag.Parse()

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
		Logger:           logger,
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
