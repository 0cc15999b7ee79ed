package gateway

import (
	"fmt"
	"sync/atomic"

	"srvsim/internal/obsv"
)

// gwMetrics aggregates the gateway counters exported at /v1/metrics —
// the same collect-on-scrape discipline as the node-side serve.metrics:
// handlers bump atomics, the registry reads them only when scraped.
type gwMetrics struct {
	requests     atomic.Int64 // HTTP requests accepted (any endpoint)
	submitted    atomic.Int64 // submissions accepted by some node
	invalid      atomic.Int64 // submissions refused with 400 at the edge
	shedOversize atomic.Int64 // submissions shed with 413 at the edge
	cacheHits    atomic.Int64 // submissions answered from the gateway-tier cache
	cacheMisses  atomic.Int64 // submissions that went to a node
	shedDeadline atomic.Int64 // submissions refused at the edge: caller deadline expired
	handoffs     atomic.Int64 // forwards moved to the next ring owner (drain/unreachable/429)
	steals       atomic.Int64 // submissions stolen from an overloaded owner
	rescued      atomic.Int64 // orphaned jobs resubmitted to a new owner
	noNodes      atomic.Int64 // submissions refused 503 with no eligible node
	healthPolls  atomic.Int64 // fleet health-poll rounds completed
}

// registry builds the obsv view over the gateway counters plus per-node
// eligibility and load gauges (one row per configured node, labelled by
// index so the metric names stay Prometheus-safe regardless of the URL).
func (m *gwMetrics) registry(g *Gateway) *obsv.Registry {
	reg := obsv.NewRegistry()
	s := reg.Section("gateway")
	s.CounterFn("gateway.http_requests", "HTTP requests accepted across all endpoints", m.requests.Load)
	s.CounterFn("gateway.jobs_submitted", "submissions accepted by a fleet node", m.submitted.Load)
	s.CounterFn("gateway.jobs_rejected_invalid", "submissions refused as invalid at the edge", m.invalid.Load)
	s.CounterFn("gateway.jobs_shed_oversize", "submissions shed for body size at the edge", m.shedOversize.Load)
	s.CounterFn("gateway.jobs_expired_deadline", "submissions refused at the edge because the caller deadline expired", m.shedDeadline.Load)
	s.Gauge("gateway.brownout_step", "lowest brownout step among eligible nodes (0 serving)", "%.0f", func() float64 {
		return float64(g.minBrownoutStep())
	})
	s.CounterFn("gateway.handoffs", "forwards handed off to the next ring owner", m.handoffs.Load)
	s.CounterFn("gateway.jobs_stolen", "submissions stolen from an overloaded shard owner", m.steals.Load)
	s.CounterFn("gateway.jobs_rescued", "orphaned jobs resubmitted after their owner drained or died", m.rescued.Load)
	s.CounterFn("gateway.no_eligible_node", "submissions refused because no node was eligible", m.noNodes.Load)
	s.CounterFn("gateway.health_polls", "fleet health-poll rounds completed", m.healthPolls.Load)
	s.CounterFn("gateway.jobs_tracked", "live forwarded jobs the gateway keeps a rescue record for", func() int64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return int64(len(g.jobs))
	})
	c := reg.Section("gateway.cache")
	c.CounterFn("gateway.cache.hits", "submissions answered from the gateway-tier result cache", m.cacheHits.Load)
	c.CounterFn("gateway.cache.misses", "submissions forwarded to a node", m.cacheMisses.Load)
	c.CounterFn("gateway.cache.entries", "results currently held by the gateway-tier cache", func() int64 {
		return int64(g.cache.Len())
	})
	nodes := reg.Section("gateway.node")
	for i, name := range g.order {
		n := g.nodes[name]
		prefix := fmt.Sprintf("gateway.node.%d", i)
		nodes.Gauge(prefix+".eligible", "1 when the gateway routes to "+name, "%.0f", func() float64 {
			if n.eligible() {
				return 1
			}
			return 0
		})
		nodes.Gauge(prefix+".predicted_wait_ms", "last reported queue-wait prediction of "+name, "%.3f",
			n.predictedWaitMS)
	}
	tr := reg.Section("gateway.trace")
	tr.CounterFn("gateway.trace.spans", "request spans buffered for GET /v1/trace", func() int64 {
		return int64(g.spans.Len())
	})
	tr.CounterFn("gateway.trace.spans_dropped", "request spans dropped because the buffer was full", g.spans.Dropped)
	return reg
}
