// srvd is the long-running simulation daemon: it serves the versioned
// /v1 HTTP/JSON API of internal/serve, executing harness.Requests on a
// bounded job queue and answering repeated submissions byte-identically from
// a content-addressed result cache.
//
// Usage:
//
//	srvd -addr :8077
//	srvd -addr :8077 -parallel 8 -queue 128 -cache 512 -job-timeout 5m
//	srvd -addr :8077 -log-format json -pprof
//
// Submit work with curl (see "Service mode" in the README) or point a CLI at
// it: `srvbench -remote http://localhost:8077`.
//
// Every log line about a job carries its trace_id, the same ID stamped on
// the W3C traceparent header and returned in the job status, so one grep
// correlates client spans, server logs and GET /v1/trace output.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	nodeID := flag.String("node-id", "", "fleet node name stamped on health and job statuses; set it on every fleet node, since a gateway passes statuses through unchanged (empty = standalone)")
	par := flag.Int("parallel", harness.DefaultParallelism(), "max concurrent simulations per job (1 = serial)")
	jobWorkers := flag.Int("job-workers", 2, "jobs executed concurrently (each fans out over -parallel workers)")
	queueSize := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	cacheSize := flag.Int("cache", 256, "max cached results (LRU; negative disables the cache)")
	jobTimeout := flag.Duration("job-timeout", 0, "wall-clock budget per job, e.g. 5m (0 = unbounded)")
	journalDir := flag.String("journal", "", "directory for the durable job journal (empty = no journal; jobs do not survive restarts)")
	ckptEvery := flag.Int64("checkpoint-every", 100000, "journal a machine checkpoint every N simulated cycles per running simulation, so killed or preempted jobs resume mid-run on restart (0 = off; requires -journal)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "budget for finishing in-flight jobs on SIGTERM/SIGINT before they are cancelled")
	queueDeadline := flag.Duration("queue-deadline", 0, "shed submissions with 429 when the predicted queue wait exceeds this (0 = never shed)")
	maxInflight := flag.Int64("max-inflight-bytes", serve.DefaultMaxInflightBytes, "largest accepted request body in bytes (0 = unbounded)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "bound the result cache by total payload bytes (0 = default 256MiB, negative = entry count only)")
	tenantQueue := flag.Int("tenant-queue", 0, "max queued jobs per tenant before that tenant's submissions get 429 (0 = whole-queue bound only)")
	tenantRate := flag.Float64("tenant-rate", 0, "uniform per-tenant submissions/sec quota (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "uniform per-tenant submission burst absorbed on top of -tenant-rate")
	tenantBytes := flag.Int64("tenant-inflight-bytes", 0, "uniform per-tenant cap on admitted-but-unfinished body bytes (0 = unlimited)")
	brownoutHW := flag.Duration("brownout-highwater", 0, "predicted queue wait that starts brownout shedding, e.g. 2s (0 = never)")
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
	pprofFlag := flag.Bool("pprof", false, "expose Go runtime profiling at /debug/pprof/ (CPU, heap, goroutine, ...)")
	flag.Parse()

	logger, err := obsv.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvd:", err)
		os.Exit(1)
	}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	srv, err := serve.New(serve.Config{
		Harness:          &harness.Env{Parallelism: *par},
		NodeID:           *nodeID,
		Workers:          *jobWorkers,
		QueueSize:        *queueSize,
		CacheSize:        *cacheSize,
		JobTimeout:       *jobTimeout,
		JournalDir:       *journalDir,
		CheckpointEvery:  *ckptEvery,
		QueueDeadline:    *queueDeadline,
		MaxInflightBytes: *maxInflight,
		CacheMaxBytes:    *cacheMaxBytes,
		TenantQueueSize:  *tenantQueue,
		TenantQuota: serve.TenantLimits{
			SubmitRate:       *tenantRate,
			SubmitBurst:      *tenantBurst,
			MaxInflightBytes: *tenantBytes,
		},
		TenantQuotas:      tenantOverrides,
		BrownoutHighWater: *brownoutHW,
		Logger:            logger,
	})
	if err != nil {
		fatal(err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: withPprof(srv.Handler(), *pprofFlag)}
	logger.Info("listening", "addr", ln.Addr().String(),
		"version", harness.CodeVersion, "schema", harness.SchemaVersion,
		"job_workers", *jobWorkers, "queue", *queueSize, "cache", *cacheSize,
		"pprof", *pprofFlag)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (submissions get 503 + Retry-After),
	// finish or cancel in-flight jobs within the budget, journal their final
	// states, then stop serving HTTP. Exit 0 either way — a drain that had to
	// cancel still left a consistent journal for the next process to replay.
	logger.Info("signal received, draining", "budget", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain cancelled in-flight jobs", "err", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("drained")
}

// withPprof optionally mounts the Go runtime profiling endpoints next to the
// API. The handlers are attached explicitly — srvd never serves
// http.DefaultServeMux, so nothing is exposed without the flag.
func withPprof(api http.Handler, enabled bool) http.Handler {
	if !enabled {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}
