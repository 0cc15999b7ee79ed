package gateway

import (
	"context"
	"sync"
	"time"

	"srvsim/internal/serve"
)

// node is one srvd member of the fleet: its resilient client (whose per-host
// circuit breaker doubles as the gateway's eject/readmit signal) plus the
// last health snapshot the poll loop took.
type node struct {
	name   string // ring identity: the configured address
	client *serve.Client

	mu       sync.Mutex
	healthy  bool // last health poll succeeded
	draining bool // node reported state=draining, or answered a submit with 503
	health   serve.Health
	lastSeen time.Time
}

// newNode dials nothing — the client is lazy. Forwarded calls retry once on
// transport errors (hand-off to the next ring owner is the real fallback,
// not backoff), and the breaker ejects the node after a few consecutive
// transport failures.
func newNode(name string) *node {
	return &node{
		name: name,
		client: serve.NewClient(name,
			serve.WithRetry(serve.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: 250 * time.Millisecond}),
			serve.WithBreaker(3, 2*time.Second),
		),
	}
}

// poll refreshes the node's health snapshot. A node is readmitted the moment
// a poll succeeds again — the client's half-open breaker probe is what lets
// that poll through after an ejection.
func (n *node) poll(ctx context.Context, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	h, err := n.client.Health(pctx)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		n.healthy = false
		return
	}
	n.healthy = true
	n.draining = h.State == "draining"
	n.health = h
	n.lastSeen = time.Now()
}

// markDraining records that the node answered a submission with 503
// (draining) — the poll loop will rescue its queued jobs.
func (n *node) markDraining() {
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
}

// eligible reports whether the gateway should route new work here: the
// circuit must be closed, the node not draining, and the last poll healthy.
// A node that was never polled yet (fresh gateway) is given the benefit of
// the doubt — the submit path discovers the truth and hands off if needed.
func (n *node) eligible() bool {
	if n.client.CircuitOpen() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.draining {
		return false
	}
	return n.healthy || n.lastSeen.IsZero()
}

// predictedWaitMS returns the node's last-reported queue-wait prediction
// (the serve EWMA × depth ÷ workers signal) — what work-stealing compares
// against the threshold.
func (n *node) predictedWaitMS() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.health.PredictedWaitMS
}

// NodeStatus is one fleet member's row in the gateway's /v1/healthz payload.
type NodeStatus struct {
	Name        string `json:"name"`
	Healthy     bool   `json:"healthy"`
	Draining    bool   `json:"draining"`
	CircuitOpen bool   `json:"circuit_open"`
	// Node is the member's own NodeID as it reports it (srvd -node-id),
	// which need not equal Name (the address the gateway dials).
	Node            string  `json:"node,omitempty"`
	Workers         int     `json:"workers"`
	QueueDepth      int64   `json:"queue_depth"`
	PredictedWaitMS float64 `json:"predicted_wait_ms"`
	JournalLag      int64   `json:"journal_lag"`
	// Brownout is the node's self-reported degradation step name (empty when
	// serving normally). Additive: seed-era nodes never report one.
	Brownout string `json:"brownout,omitempty"`
}

// status snapshots the node for /v1/healthz.
func (n *node) status() NodeStatus {
	open := n.client.CircuitOpen()
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		Name:            n.name,
		Healthy:         n.healthy,
		Draining:        n.draining,
		CircuitOpen:     open,
		Node:            n.health.Node,
		Workers:         n.health.Workers,
		QueueDepth:      n.health.QueueDepth,
		PredictedWaitMS: n.health.PredictedWaitMS,
		JournalLag:      n.health.JournalLag,
		Brownout:        n.health.Brownout,
	}
}

// brownout returns the node's last-reported brownout step name.
func (n *node) brownout() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.health.Brownout
}
