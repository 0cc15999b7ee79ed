package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Per-tenant quotas bound what any one principal can ask of the service:
// a token-bucket rate on submissions per second (absorbing a configurable
// burst) and a cap on admitted-but-unfinished request-body bytes. Both are
// enforced at each node's admission (a gateway enforces none), and
// a refusal carries an honest retry_after_ms: the exact time until the
// bucket next holds a whole token, not a made-up constant. Zero-valued
// limits mean unlimited, so a deployment that configures no quotas behaves
// exactly like the seed.

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

func (l TenantLimits) weight() int {
	if l.Weight < 1 {
		return DefaultTenantWeight
	}
	return l.Weight
}

// tenantBucket is one tenant's live quota state.
type tenantBucket struct {
	limits   TenantLimits
	tokens   float64 // current submit tokens (≤ burst)
	last     time.Time
	inflight int64 // admitted-but-unfinished body bytes
}

// Quotas holds every tenant's bucket. now is injectable so quota tests are
// deterministic.
type Quotas struct {
	mu       sync.Mutex
	uniform  TenantLimits // applied to tenants without an override
	override map[string]TenantLimits
	buckets  map[string]*tenantBucket
	now      func() time.Time
}

// NewQuotas builds the quota state. uniform applies to every tenant not in
// overrides; the zero TenantLimits (no quotas at all) makes every admit
// succeed, preserving seed behaviour.
func NewQuotas(uniform TenantLimits, overrides map[string]TenantLimits) *Quotas {
	return &Quotas{
		uniform:  uniform,
		override: overrides,
		buckets:  make(map[string]*tenantBucket),
		now:      time.Now,
	}
}

// limitsFor resolves a tenant's configured limits.
func (q *Quotas) limitsFor(tenant string) TenantLimits {
	if l, ok := q.override[tenant]; ok {
		return l
	}
	return q.uniform
}

// WeightFor is the fair queue's weight source.
func (q *Quotas) WeightFor(tenant string) int { return q.limitsFor(tenant).weight() }

// bucket returns (creating if needed) the tenant's live state. Caller holds mu.
func (q *Quotas) bucket(tenant string) *tenantBucket {
	b := q.buckets[tenant]
	if b == nil {
		l := q.limitsFor(tenant)
		burst := l.SubmitBurst
		if burst < 1 {
			burst = 1
		}
		// A new tenant starts with a full bucket: its first burst is free.
		b = &tenantBucket{limits: l, tokens: float64(burst), last: q.now()}
		q.buckets[tenant] = b
	}
	return b
}

// refill advances the bucket to now. Caller holds mu.
func (b *tenantBucket) refill(now time.Time) {
	if b.limits.SubmitRate <= 0 {
		return
	}
	burst := float64(b.limits.SubmitBurst)
	if burst < 1 {
		burst = 1
	}
	b.tokens += now.Sub(b.last).Seconds() * b.limits.SubmitRate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
}

// AdmitRate spends one submission token, or reports how long until the
// bucket next holds one. ok=true always when the tenant has no rate quota.
func (q *Quotas) AdmitRate(tenant string) (ok bool, retryAfter time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucket(tenant)
	if b.limits.SubmitRate <= 0 {
		return true, 0
	}
	b.refill(q.now())
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Honest retry hint: the time for the deficit to refill at the
	// sustained rate (rounded up to the next millisecond so a client that
	// sleeps exactly this long finds a whole token).
	deficit := 1 - b.tokens
	wait := time.Duration(deficit / b.limits.SubmitRate * float64(time.Second))
	if rem := wait % time.Millisecond; rem != 0 {
		wait += time.Millisecond - rem
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// AdmitBytes charges n body bytes against the tenant's in-flight allowance,
// refusing when the cap would be exceeded. Every successful charge must be
// balanced by exactly one ReleaseBytes when the job reaches a terminal state
// (or is refused after the charge).
func (q *Quotas) AdmitBytes(tenant string, n int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucket(tenant)
	if b.limits.MaxInflightBytes > 0 && b.inflight+n > b.limits.MaxInflightBytes {
		return false
	}
	b.inflight += n
	return true
}

// ReleaseBytes returns a job's body bytes to the tenant's allowance.
func (q *Quotas) ReleaseBytes(tenant string, n int64) {
	if n == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.buckets[tenant]; b != nil {
		b.inflight -= n
		if b.inflight < 0 {
			b.inflight = 0
		}
	}
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

// ParseTenantOverride decodes one `-tenant` flag value of the form
//
//	name:weight=4,rate=2.5,burst=8,bytes=1048576
//
// into the tenant name and its TenantLimits. Every key is optional; omitted
// keys stay at their unlimited zero value. The name must be one a
// submission may carry (1 to 64 characters from [A-Za-z0-9._-]); "default"
// selects the empty tenant (requests without an X-Srv-Tenant header).
func ParseTenantOverride(spec string) (string, TenantLimits, error) {
	name, opts, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return "", TenantLimits{}, fmt.Errorf("tenant spec %q: want name:key=value,...", spec)
	}
	if !validTenant(name) {
		return "", TenantLimits{}, fmt.Errorf("tenant spec %q: name must be 1 to %d characters from [A-Za-z0-9._-]", spec, maxTenantLen)
	}
	if name == "default" {
		name = ""
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
	return name, l, nil
}

// InflightBytes reports a tenant's admitted-but-unfinished body bytes.
func (q *Quotas) InflightBytes(tenant string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.buckets[tenant]; b != nil {
		return b.inflight
	}
	return 0
}
