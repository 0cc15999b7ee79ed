package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// The fair queue replaces the seed's FIFO job channel with per-tenant
// weighted fair queueing: one bounded FIFO subqueue per tenant, dequeued by
// deficit round-robin (DRR) so dequeue order interleaves tenants by their
// configured share instead of by arrival. A tenant flooding a thousand jobs
// therefore delays another tenant's single job by at most a few service
// times — the starvation-freedom property the multi-tenant chaos test pins —
// while a server that only ever sees the default tenant degenerates to a
// single subqueue and is exactly the seed's FIFO.
//
// DRR here uses unit job cost and a per-visit quantum equal to the tenant's
// weight: when the round-robin pointer reaches a tenant its deficit is
// recharged by its weight, and each dequeued job spends one deficit unit, so
// a weight-3 tenant releases up to three jobs per round to a weight-1
// tenant's one. Only tenants with queued work occupy the round-robin ring,
// so an idle tenant costs nothing and a newly-active one joins at the back
// of the current round with an empty deficit (no banked credit for idling).

// Queue refusal reasons, surfaced to admission as typed sentinels so the
// handler can pick the right over_capacity message and metric.
var (
	// errQueueFull: the queue's total bound is exhausted (the seed's 429).
	errQueueFull = errors.New("serve: queue full")
	// errTenantFull: the submitting tenant's own subqueue bound is exhausted
	// — other tenants may still have plenty of room.
	errTenantFull = errors.New("serve: tenant queue full")
)

// DefaultTenantWeight is the share of a tenant with no configured weight.
const DefaultTenantWeight = 1

// tenantName renders a tenant identity for humans and wire snapshots: the
// default tenant's empty string reads as "default".
func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// tenantSub is one tenant's FIFO subqueue plus its DRR state.
type tenantSub struct {
	name    string
	jobs    []*job // FIFO: append at tail, pop from head
	head    int    // index of the next job to pop (amortised O(1) pop)
	weight  int
	deficit int // remaining jobs this tenant may release this DRR round
}

func (t *tenantSub) depth() int { return len(t.jobs) - t.head }

func (t *tenantSub) push(j *job) { t.jobs = append(t.jobs, j) }

func (t *tenantSub) pop() *job {
	j := t.jobs[t.head]
	t.jobs[t.head] = nil // release the reference for GC
	t.head++
	if t.head == len(t.jobs) {
		t.jobs = t.jobs[:0]
		t.head = 0
	}
	return j
}

// fairQueue is the weighted-fair job queue. All state is guarded by mu;
// blocked Pop calls park on sig (one-slot notify channel) so they can select
// against shutdown/drain channels, which a sync.Cond cannot.
type fairQueue struct {
	mu        sync.Mutex
	subs      map[string]*tenantSub
	ring      []*tenantSub // tenants with queued work, round-robin order
	ringIdx   int          // current DRR position in ring
	total     int          // jobs queued across all tenants
	maxTotal  int          // total bound (recovered journal jobs exempt)
	maxTenant int          // per-tenant bound (recovered journal jobs exempt)
	weightFor func(tenant string) int
	sig       chan struct{} // one-slot wakeup for parked Pop calls
}

// newFairQueue builds the queue. maxTotal bounds jobs across all tenants and
// maxTenant bounds any one tenant's subqueue (≤ 0 selects maxTotal, so a
// single-tenant server keeps exactly the seed's one bound). weightFor maps a
// tenant to its DRR weight; nil gives every tenant DefaultTenantWeight.
func newFairQueue(maxTotal, maxTenant int, weightFor func(string) int) *fairQueue {
	if maxTenant <= 0 {
		maxTenant = maxTotal
	}
	if weightFor == nil {
		weightFor = func(string) int { return DefaultTenantWeight }
	}
	return &fairQueue{
		subs:      make(map[string]*tenantSub),
		maxTotal:  maxTotal,
		maxTenant: maxTenant,
		weightFor: weightFor,
		sig:       make(chan struct{}, 1),
	}
}

// sub returns (creating if needed) the tenant's subqueue.
func (q *fairQueue) sub(tenant string) *tenantSub {
	t := q.subs[tenant]
	if t == nil {
		w := q.weightFor(tenant)
		if w < 1 {
			w = DefaultTenantWeight
		}
		t = &tenantSub{name: tenant, weight: w}
		q.subs[tenant] = t
	}
	return t
}

// wake releases one parked Pop (non-blocking: a pending signal is enough,
// because every woken Pop re-signals while work remains).
func (q *fairQueue) wake() {
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

// Push enqueues j on its tenant's subqueue, refusing with errTenantFull or
// errQueueFull when a bound is exhausted.
func (q *fairQueue) Push(j *job) error {
	q.mu.Lock()
	if q.total >= q.maxTotal {
		q.mu.Unlock()
		return errQueueFull
	}
	t := q.sub(j.tenant)
	if t.depth() >= q.maxTenant {
		q.mu.Unlock()
		return errTenantFull
	}
	q.pushLocked(t, j)
	q.mu.Unlock()
	q.wake()
	return nil
}

// pushRecovered enqueues a journal-replayed job, exempt from both bounds:
// recovered work must never be dropped on the floor.
func (q *fairQueue) pushRecovered(j *job) {
	q.mu.Lock()
	q.pushLocked(q.sub(j.tenant), j)
	q.mu.Unlock()
	q.wake()
}

func (q *fairQueue) pushLocked(t *tenantSub, j *job) {
	if t.depth() == 0 {
		// Joining the active ring mid-round: no banked credit for idling.
		t.deficit = 0
		q.ring = append(q.ring, t)
	}
	t.push(j)
	q.total++
}

// tryPop dequeues the next job in DRR order, or nil when the queue is empty.
func (q *fairQueue) tryPop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.total == 0 {
		return nil
	}
	for {
		if q.ringIdx >= len(q.ring) {
			q.ringIdx = 0
		}
		t := q.ring[q.ringIdx]
		if t.deficit == 0 {
			// The pointer arrived at this tenant: recharge its quantum.
			t.deficit = t.weight
		}
		j := t.pop()
		t.deficit--
		q.total--
		if t.depth() == 0 {
			// Subqueue drained: leave the ring (deficit is forfeit).
			t.deficit = 0
			q.ring = append(q.ring[:q.ringIdx], q.ring[q.ringIdx+1:]...)
		} else if t.deficit == 0 {
			q.ringIdx++
		}
		if q.total > 0 {
			// More work remains: keep another parked Pop awake.
			q.wake()
		}
		return j
	}
}

// Pop blocks until a job is available (dequeued in DRR order) or ctx/stop
// ends the wait; ok=false means the caller should stop consuming. ctx/stop
// take priority over queued work, so a draining server's workers never pick
// up new jobs even when both are ready (the seed's drain determinism).
func (q *fairQueue) Pop(ctx context.Context, stop <-chan struct{}) (*job, bool) {
	for {
		select {
		case <-ctx.Done():
			return nil, false
		case <-stop:
			return nil, false
		default:
		}
		if j := q.tryPop(); j != nil {
			return j, true
		}
		select {
		case <-ctx.Done():
			return nil, false
		case <-stop:
			return nil, false
		case <-q.sig:
		}
	}
}

// Len reports the total queued jobs.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// TenantDepth reports one tenant's queued jobs.
func (q *fairQueue) TenantDepth(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t := q.subs[tenant]; t != nil {
		return t.depth()
	}
	return 0
}

// Tenants reports how many tenants have ever queued work here.
func (q *fairQueue) Tenants() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.subs)
}

// TenantSnapshot is one tenant's row in /v1/healthz.
type TenantSnapshot struct {
	// Tenant is the wire identity; the default tenant reports as "default".
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	Queued int    `json:"queued"`
	// InflightBytes is the tenant's admitted-but-unfinished body bytes (the
	// in-flight quota dimension); stamped by the server, not the queue.
	InflightBytes int64 `json:"inflight_bytes,omitempty"`
}

// Snapshot lists per-tenant queue state, sorted by tenant name so healthz
// output is deterministic. Tenants that have gone idle still appear (weight
// and quota state outlive an empty queue); the default tenant renders as
// "default".
func (q *fairQueue) Snapshot() []TenantSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(q.subs))
	for name, t := range q.subs {
		out = append(out, TenantSnapshot{Tenant: tenantName(name), Weight: t.weight, Queued: t.depth()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
