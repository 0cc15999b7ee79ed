package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A node keeps one record per tenant, in one table behind one lock. The
// record holds everything the node knows of the tenant: its limits, its
// submission-rate token bucket, its in-flight body bytes, and its FIFO
// subqueue with its deficit round-robin (DRR) state.
//
// Quotas bound what any one principal can ask of the node: a token-bucket
// rate on submissions (absorbing a configurable burst) and a cap on
// admitted-but-unfinished body bytes. A refusal carries an honest retry
// hint: the exact time until the bucket next holds a whole token. Zero
// limits mean unlimited, so a node with no quotas behaves like the seed.
//
// The queue is weighted fair (Shreedhar & Varghese, SIGCOMM '95): one FIFO
// subqueue per tenant, dequeued by DRR with unit job cost and a per-visit
// quantum equal to the tenant's weight, so a weight-3 tenant releases up to
// three jobs per round to a weight-1 tenant's one, and a flood delays
// another tenant's single job by at most one round. Only tenants with queued
// work occupy the ring; one that joins it starts with an empty deficit (no
// banked credit for idling). A node that sees only the default tenant runs
// one subqueue, the seed's FIFO.
//
// A tenant has a record only while it holds state a fresh record would not:
// queued jobs, in-flight bytes, or a partly spent bucket. A rate check of a
// tenant with no rate limit creates none. A record goes when its last job
// pops, its bytes are released and its bucket is full; one whose bucket is
// still refilling goes at the first sweep after it has refilled. Sweeps run
// when healthz lists the table, and when a record is created into a table
// twice the size the last sweep left, so the table stays within twice its
// live records at O(1) amortised cost per record. An idle tenant's deficit
// is forfeit anyway, so dropping its record changes no scheduling or
// admission decision.

// TenantLimits configures one tenant's quota. The zero value is unlimited.
type TenantLimits struct {
	// SubmitRate is the sustained submissions/second allowance (token-bucket
	// refill rate). 0 = unlimited.
	SubmitRate float64
	// SubmitBurst is the bucket capacity — how many submissions can land
	// back-to-back before the rate bites. 0 with a non-zero SubmitRate
	// defaults to 1 (no burst beyond the sustained rate).
	SubmitBurst int
	// MaxInflightBytes caps the tenant's admitted-but-unfinished submission
	// body bytes across all queued and running jobs. 0 = unlimited.
	MaxInflightBytes int64
	// Weight is the tenant's fair-queue share (DRR quantum). 0 selects
	// DefaultTenantWeight.
	Weight int
}

// DefaultTenantWeight is the share of a tenant with no configured weight.
const DefaultTenantWeight = 1

// validate refuses a limit no bucket or cap can honour: NaN, ±Inf or a
// negative value. Keys are named as in the -tenant flag grammar.
func (l TenantLimits) validate() error {
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"weight", float64(l.Weight)}, {"rate", l.SubmitRate},
		{"burst", float64(l.SubmitBurst)}, {"bytes", float64(l.MaxInflightBytes)},
	} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("bad %s %v: want a finite, non-negative number", f.key, f.v)
		}
	}
	return nil
}

// resolved applies the defaults: a weight and a burst of at least 1.
func (l TenantLimits) resolved() TenantLimits {
	if l.Weight < 1 {
		l.Weight = DefaultTenantWeight
	}
	if l.SubmitBurst < 1 {
		l.SubmitBurst = 1
	}
	return l
}

// Admission refusals, checked in this order.
var (
	// errBytesQuota: the job's body would take its tenant past its
	// in-flight bytes quota.
	errBytesQuota = errors.New("serve: tenant over in-flight bytes quota")
	// errQueueFull: the queue's total bound is exhausted (the seed's 429).
	errQueueFull = errors.New("serve: queue full")
	// errTenantFull: the submitting tenant's own subqueue bound is exhausted
	// — other tenants may still have plenty of room.
	errTenantFull = errors.New("serve: tenant queue full")
)

// tenant is one tenant's record.
type tenant struct {
	name   string
	limits TenantLimits // resolved, fixed when the record is created
	// tokens is the submit bucket's content (≤ limits.SubmitBurst) as of last.
	tokens   float64
	last     time.Time
	inflight int64  // admitted-but-unfinished body bytes
	jobs     []*job // FIFO: append at tail, pop from head
	head     int    // index of the next job to pop (amortised O(1) pop)
	deficit  int    // jobs this tenant may still release this DRR round
}

func (t *tenant) depth() int { return len(t.jobs) - t.head }

func (t *tenant) pop() *job {
	j := t.jobs[t.head]
	t.jobs[t.head] = nil // release the reference for GC
	t.head++
	if t.head == len(t.jobs) {
		t.jobs = t.jobs[:0]
		t.head = 0
	}
	return j
}

// refill advances the bucket to now.
func (t *tenant) refill(now time.Time) {
	t.tokens = min(t.tokens+now.Sub(t.last).Seconds()*t.limits.SubmitRate, float64(t.limits.SubmitBurst))
	t.last = now
}

// tenantTable holds every tenant's record, the DRR ring and the two queue
// bounds. All state is guarded by mu; blocked pops park on sig (a one-slot
// notify channel) so they can select against shutdown and drain, which a
// sync.Cond cannot.
type tenantTable struct {
	uniform   TenantLimits            // resolved; tenants without an override
	override  map[string]TenantLimits // resolved
	maxWeight int                     // the largest configured weight
	maxTotal  int                     // total bound (recovered jobs exempt)
	maxTenant int                     // per-tenant bound (recovered jobs exempt)
	now       func() time.Time        // injectable for deterministic tests
	sig       chan struct{}

	mu      sync.Mutex
	records map[string]*tenant
	kept    int       // records the last sweep left
	ring    []*tenant // tenants with queued work, round-robin order
	ringIdx int       // current DRR position in ring
	total   int       // jobs queued across all tenants
}

// newTenantTable builds the table. uniform applies to every tenant not in
// overrides (whose "" key is the default tenant). maxTotal bounds queued
// jobs across all tenants and maxTenant any one tenant's (≤ 0 selects
// maxTotal, so a single-tenant node keeps exactly the seed's one bound).
func newTenantTable(uniform TenantLimits, overrides map[string]TenantLimits, maxTotal, maxTenant int) *tenantTable {
	if maxTenant <= 0 {
		maxTenant = maxTotal
	}
	tt := &tenantTable{
		uniform:   uniform.resolved(),
		override:  make(map[string]TenantLimits, len(overrides)),
		maxTotal:  maxTotal,
		maxTenant: maxTenant,
		now:       time.Now,
		sig:       make(chan struct{}, 1),
		records:   make(map[string]*tenant),
	}
	tt.maxWeight = tt.uniform.Weight
	for name, l := range overrides {
		l = l.resolved()
		tt.override[name] = l
		tt.maxWeight = max(tt.maxWeight, l.Weight)
	}
	return tt
}

// limitsFor resolves a tenant's configured limits (immutable: no lock).
func (tt *tenantTable) limitsFor(name string) TenantLimits {
	if l, ok := tt.override[name]; ok {
		return l
	}
	return tt.uniform
}

// lowWeight reports whether the brownout shed-low step refuses name: its
// weight is below the largest configured.
func (tt *tenantTable) lowWeight(name string) bool {
	return tt.limitsFor(name).Weight < tt.maxWeight
}

// record returns name's record, creating it with a full bucket; creating
// one into a table twice the size the last sweep left first sweeps the idle
// ones. Caller holds mu.
func (tt *tenantTable) record(name string) *tenant {
	if t := tt.records[name]; t != nil {
		return t
	}
	if len(tt.records) >= 2*tt.kept {
		tt.sweep()
	}
	l := tt.limitsFor(name)
	t := &tenant{name: name, limits: l, tokens: float64(l.SubmitBurst), last: tt.now()}
	tt.records[name] = t
	return t
}

// idle reports whether t holds nothing a fresh record would not: no queued
// jobs, no charged bytes, and a full bucket. Caller holds mu.
func (tt *tenantTable) idle(t *tenant) bool {
	if t.depth() > 0 || t.inflight > 0 {
		return false
	}
	if t.limits.SubmitRate <= 0 {
		return true
	}
	t.refill(tt.now())
	return t.tokens >= float64(t.limits.SubmitBurst)
}

// dropIfIdle deletes t's record once it is idle. Caller holds mu.
func (tt *tenantTable) dropIfIdle(t *tenant) {
	if tt.idle(t) {
		delete(tt.records, t.name)
	}
}

// sweep drops every idle record. Caller holds mu.
func (tt *tenantTable) sweep() {
	for _, t := range tt.records {
		tt.dropIfIdle(t)
	}
	tt.kept = len(tt.records)
}

// rate spends one submission token of name's bucket, or reports how long
// until the bucket next holds one. A tenant without a rate limit always
// passes.
func (tt *tenantTable) rate(name string) (ok bool, retryAfter time.Duration) {
	if tt.limitsFor(name).SubmitRate <= 0 {
		return true, 0
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	t := tt.record(name)
	t.refill(tt.now())
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	// Honest retry hint: the time for the deficit to refill at the
	// sustained rate, rounded up to the next millisecond so a client that
	// sleeps exactly this long finds a whole token. A rate too slow for a
	// Duration gets the longest one, not a wrapped-around value.
	wait := time.Duration(math.MaxInt64)
	if ns := (1 - t.tokens) / t.limits.SubmitRate * float64(time.Second); ns < float64(wait-time.Millisecond) {
		wait = time.Duration(ns)
		if rem := wait % time.Millisecond; rem != 0 {
			wait += time.Millisecond - rem
		}
	}
	return false, max(wait, time.Millisecond)
}

// check reports whether a job of name with a body of n bytes may be
// admitted: errBytesQuota, errQueueFull or errTenantFull, in that order, or
// nil. It creates no record. Fresh jobs are checked and pushed under
// Server.mu, so a nil answer holds until the push that follows it: pops and
// releases only make room.
func (tt *tenantTable) check(name string, n int64) error {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	var inflight int64
	var depth int
	if t := tt.records[name]; t != nil {
		inflight, depth = t.inflight, t.depth()
	}
	if q := tt.limitsFor(name).MaxInflightBytes; q > 0 && inflight+n > q {
		return errBytesQuota
	}
	if tt.total >= tt.maxTotal {
		return errQueueFull
	}
	if depth >= tt.maxTenant {
		return errTenantFull
	}
	return nil
}

// push charges j's body bytes to its tenant and queues j, exempt from both
// bounds: admission checks them first, and journal-recovered work must never
// be dropped on the floor.
func (tt *tenantTable) push(j *job) {
	tt.mu.Lock()
	t := tt.record(j.tenant)
	t.inflight += j.bodyBytes
	if t.depth() == 0 {
		// Joining the active ring mid-round: no banked credit for idling.
		t.deficit = 0
		tt.ring = append(tt.ring, t)
	}
	t.jobs = append(t.jobs, j)
	tt.total++
	tt.mu.Unlock()
	tt.wake()
}

// release returns an ended job's body bytes to its tenant.
func (tt *tenantTable) release(j *job) {
	if j.bodyBytes == 0 {
		return
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t := tt.records[j.tenant]; t != nil {
		t.inflight = max(t.inflight-j.bodyBytes, 0)
		tt.dropIfIdle(t)
	}
}

// wake releases one parked pop (non-blocking: a pending signal is enough,
// because every woken pop re-signals while work remains).
func (tt *tenantTable) wake() {
	select {
	case tt.sig <- struct{}{}:
	default:
	}
}

// tryPop dequeues the next job in DRR order, or nil when the queue is empty.
func (tt *tenantTable) tryPop() *job {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.total == 0 {
		return nil
	}
	if tt.ringIdx >= len(tt.ring) {
		tt.ringIdx = 0
	}
	t := tt.ring[tt.ringIdx]
	if t.deficit == 0 {
		// The pointer arrived at this tenant: recharge its quantum.
		t.deficit = t.limits.Weight
	}
	j := t.pop()
	t.deficit--
	tt.total--
	if t.depth() == 0 {
		// Subqueue drained: leave the ring (the deficit is forfeit).
		t.deficit = 0
		tt.ring = append(tt.ring[:tt.ringIdx], tt.ring[tt.ringIdx+1:]...)
		tt.dropIfIdle(t)
	} else if t.deficit == 0 {
		tt.ringIdx++
	}
	if tt.total > 0 {
		// More work remains: keep another parked pop awake.
		tt.wake()
	}
	return j
}

// pop blocks until a job is available (dequeued in DRR order) or ctx/stop
// ends the wait; ok=false means the caller should stop consuming. ctx/stop
// take priority over queued work, so a draining server's workers never pick
// up new jobs even when both are ready (the seed's drain determinism).
func (tt *tenantTable) pop(ctx context.Context, stop <-chan struct{}) (*job, bool) {
	for {
		select {
		case <-ctx.Done():
			return nil, false
		case <-stop:
			return nil, false
		default:
		}
		if j := tt.tryPop(); j != nil {
			return j, true
		}
		select {
		case <-ctx.Done():
			return nil, false
		case <-stop:
			return nil, false
		case <-tt.sig:
		}
	}
}

// depth reports one tenant's queued jobs.
func (tt *tenantTable) depth(name string) int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t := tt.records[name]; t != nil {
		return t.depth()
	}
	return 0
}

// TenantSnapshot is one tenant's row in /v1/healthz.
type TenantSnapshot struct {
	// Tenant is the wire identity; the default tenant reports as "default".
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	Queued int    `json:"queued"`
	// InflightBytes is the tenant's admitted-but-unfinished body bytes.
	InflightBytes int64 `json:"inflight_bytes,omitempty"`
}

// snapshot sweeps the idle records and lists the rest as healthz rows,
// sorted by tenant name so the output is deterministic.
func (tt *tenantTable) snapshot() []TenantSnapshot {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.sweep()
	var out []TenantSnapshot
	for _, t := range tt.records {
		out = append(out, TenantSnapshot{Tenant: tenantName(t.name), Weight: t.limits.Weight,
			Queued: t.depth(), InflightBytes: t.inflight})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// tenantName renders a tenant identity for humans and wire snapshots: the
// default tenant's empty string reads as "default".
func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// maxTenantLen bounds a tenant name.
const maxTenantLen = 64

// validTenant reports whether t may name a tenant: empty (the default
// tenant), or 1 to maxTenantLen characters from [A-Za-z0-9._-].
func validTenant(t string) bool {
	if len(t) > maxTenantLen {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// canonicalTenant maps the name "default" onto the default tenant "", the
// identity of requests without an X-Srv-Tenant header.
func canonicalTenant(t string) string {
	if t == "default" {
		return ""
	}
	return t
}

// ParseTenantOverride decodes one `-tenant` flag value of the form
//
//	name:weight=4,rate=2.5,burst=8,bytes=1048576
//
// into the tenant name and its TenantLimits. Every key is optional; omitted
// keys stay at their unlimited zero value, and every value must be finite
// and non-negative. The name must be one a submission may carry (1 to 64
// characters from [A-Za-z0-9._-]); "default" selects the empty tenant
// (requests without an X-Srv-Tenant header).
func ParseTenantOverride(spec string) (string, TenantLimits, error) {
	name, opts, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return "", TenantLimits{}, fmt.Errorf("tenant spec %q: want name:key=value,...", spec)
	}
	if !validTenant(name) {
		return "", TenantLimits{}, fmt.Errorf("tenant spec %q: name must be 1 to %d characters from [A-Za-z0-9._-]", spec, maxTenantLen)
	}
	var l TenantLimits
	for _, kv := range strings.Split(opts, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", TenantLimits{}, fmt.Errorf("tenant spec %q: option %q is not key=value", spec, kv)
		}
		var err error
		switch k {
		case "weight":
			l.Weight, err = strconv.Atoi(v)
		case "rate":
			l.SubmitRate, err = strconv.ParseFloat(v, 64)
		case "burst":
			l.SubmitBurst, err = strconv.Atoi(v)
		case "bytes":
			l.MaxInflightBytes, err = strconv.ParseInt(v, 10, 64)
		default:
			return "", TenantLimits{}, fmt.Errorf("tenant spec %q: unknown key %q (want weight|rate|burst|bytes)", spec, k)
		}
		if err != nil {
			return "", TenantLimits{}, fmt.Errorf("tenant spec %q: bad %s: %v", spec, k, err)
		}
	}
	if err := l.validate(); err != nil {
		return "", TenantLimits{}, fmt.Errorf("tenant spec %q: %v", spec, err)
	}
	return canonicalTenant(name), l, nil
}
