package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"srvsim/internal/gateway"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

// fleetNodes is the number of serve nodes behind the gateway.
const fleetNodes = 2

// fleetSpec configures one in-process fleet.
type fleetSpec struct {
	nodeCache int  // node result-cache entries (0 = the serve default)
	journal   bool // give every node a durable journal
}

// fleet is a gateway over fleetNodes serve nodes, each one job worker,
// every handler on its own loopback listener.
type fleet struct {
	url     string // gateway base URL
	gw      *gateway.Gateway
	nodes   []*serve.Server
	servers []*http.Server
	serving sync.WaitGroup
	dir     string // journal root, removed on close
}

// bootFleet starts a fleet. Journals live in a fresh directory under
// scratch. hops, when not nil, times every handler.
func bootFleet(spec fleetSpec, scratch string, hops *hopLog) (*fleet, error) {
	f := &fleet{}
	if spec.journal {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		f.dir = dir
	}
	var urls []string
	for i := 0; i < fleetNodes; i++ {
		cfg := serve.Config{NodeID: fmt.Sprintf("node-%d", i), Workers: 1, CacheSize: spec.nodeCache}
		if f.dir != "" {
			cfg.JournalDir = filepath.Join(f.dir, cfg.NodeID)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv.Start()
		f.nodes = append(f.nodes, srv)
		url, err := f.listen(hops.wrap(tierNode, srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	gw, err := gateway.New(gateway.Config{Nodes: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	gw.Start()
	f.gw = gw
	if f.url, err = f.listen(hops.wrap(tierGateway, gw.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, the gateway and the nodes, waits for them,
// and removes the journals.
func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Close() // closing a listener we own cannot fail usefully
	}
	f.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gw != nil {
		if err := f.gw.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "srvperf: gateway shutdown:", err)
		}
	}
	for _, n := range f.nodes {
		if err := n.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "srvperf: node shutdown:", err)
		}
	}
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			fmt.Fprintln(os.Stderr, "srvperf:", err)
		}
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections() // the gateway's node clients use it
	}
}

// counters are the registry counters a window is charged with.
type counters struct {
	gwHits, gwMisses, handoffs int64
	nodeHits, nodeMisses       int64
	refused                    int64
}

// nodeRefusals are the serve counters of submissions a node refused.
var nodeRefusals = []string{
	"serve.jobs_rejected_queue_full", "serve.jobs_rejected_invalid", "serve.jobs_shed_deadline",
	"serve.jobs_shed_oversize", "serve.jobs_rejected_draining", "serve.jobs_shed_quota",
	"serve.jobs_rejected_tenant_full", "serve.jobs_shed_brownout", "serve.jobs_expired_deadline",
}

func counter(reg *obsv.Registry, name string) (int64, error) {
	m := reg.Lookup(name)
	if m == nil {
		return 0, fmt.Errorf("registry has no counter %q", name)
	}
	return m.Int(), nil
}

func (f *fleet) counters() (counters, error) {
	var c counters
	var errs []error
	get := func(reg *obsv.Registry, name string, dst *int64) {
		v, err := counter(reg, name)
		errs = append(errs, err)
		*dst += v
	}
	gr := f.gw.Registry()
	get(gr, "gateway.cache.hits", &c.gwHits)
	get(gr, "gateway.cache.misses", &c.gwMisses)
	get(gr, "gateway.handoffs", &c.handoffs)
	for _, n := range f.nodes {
		nr := n.Registry()
		get(nr, "serve.cache.hits", &c.nodeHits)
		get(nr, "serve.cache.misses", &c.nodeMisses)
		for _, name := range nodeRefusals {
			get(nr, name, &c.refused)
		}
	}
	return c, errors.Join(errs...)
}

func (c counters) sub(o counters) counters {
	return counters{
		gwHits: c.gwHits - o.gwHits, gwMisses: c.gwMisses - o.gwMisses, handoffs: c.handoffs - o.handoffs,
		nodeHits: c.nodeHits - o.nodeHits, nodeMisses: c.nodeMisses - o.nodeMisses, refused: c.refused - o.refused,
	}
}

// tier names the fleet layer a handler belongs to.
type tier uint8

const (
	tierGateway tier = iota
	tierNode
)

// hop is one timed submission handler call, keyed by the request's trace.
type hop struct {
	trace      obsv.TraceID
	tier       tier
	start, end time.Time
}

// hopLog times submission handlers from outside: a middleware around each
// public Handler, switched on only for the traced half of a traced run.
type hopLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	hops []hop
}

// wrap times next's POST requests while the log is on. A nil log returns
// next unchanged, so untraced runs carry no middleware at all.
func (h *hopLog) wrap(t tier, next http.Handler) http.Handler {
	if h == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if sc, ok := obsv.ParseTraceparent(r.Header.Get("traceparent")); ok {
			h.mu.Lock()
			h.hops = append(h.hops, hop{trace: sc.Trace, tier: t, start: start, end: end})
			h.mu.Unlock()
		}
	})
}

// byTrace indexes the logged hops by trace and tier.
func (h *hopLog) byTrace() map[obsv.TraceID]*[2]*hop {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := make(map[obsv.TraceID]*[2]*hop, len(h.hops))
	for i := range h.hops {
		hp := &h.hops[i]
		e := m[hp.trace]
		if e == nil {
			e = new([2]*hop)
			m[hp.trace] = e
		}
		e[hp.tier] = hp
	}
	return m
}
