package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srvsim/internal/harness"
)

// fqJob builds a bare queue entry; the table only reads id, tenant and
// bodyBytes.
func fqJob(tenant string, n int) *job {
	return &job{id: fmt.Sprintf("%s-%04d", tenantName(tenant), n), tenant: tenant}
}

// weighted builds a table whose tenants have the given weights.
func weighted(weights map[string]int, maxTotal int) *tenantTable {
	limits := make(map[string]TenantLimits, len(weights))
	for tenant, w := range weights {
		limits[tenant] = TenantLimits{Weight: w}
	}
	return newTenantTable(TenantLimits{}, limits, maxTotal, 0)
}

// admitMu stands in for Server.mu, under which admission checks and pushes.
var admitMu sync.Mutex

// admit is what admission does under Server.mu: check j against its
// tenant's quota and both bounds and, if it fits, push it.
func admit(q *tenantTable, j *job) error {
	admitMu.Lock()
	defer admitMu.Unlock()
	if err := q.check(j.tenant, j.bodyBytes); err != nil {
		return err
	}
	q.push(j)
	return nil
}

// records counts the table's live records.
func records(q *tenantTable) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.records)
}

// inflight reads a tenant's charged bytes (0 without a record).
func inflight(q *tenantTable, tenant string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t := q.records[tenant]; t != nil {
		return t.inflight
	}
	return 0
}

// drain pops every queued job without blocking.
func drain(q *tenantTable) []*job {
	var out []*job
	for {
		j := q.tryPop()
		if j == nil {
			return out
		}
		out = append(out, j)
	}
}

// TestFairQueueFIFOEquivalence: with only the default tenant, the fair queue
// must dequeue in exact arrival order — the seed's FIFO channel, bit for bit.
func TestFairQueueFIFOEquivalence(t *testing.T) {
	q := newTenantTable(TenantLimits{}, nil, 256, 0)
	for i := 0; i < 200; i++ {
		if err := admit(q, fqJob("", i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i, j := range drain(q) {
		if want := fqJob("", i).id; j.id != want {
			t.Fatalf("pop %d = %s, want %s (FIFO order broken)", i, j.id, want)
		}
	}
	if q.total != 0 {
		t.Fatalf("queue not empty after drain: %d", q.total)
	}
}

// TestFairQueueDRROrder pins the exact deficit-round-robin interleave: a
// weight-3 tenant releases three jobs for every one of a weight-1 tenant
// while both have work queued.
func TestFairQueueDRROrder(t *testing.T) {
	weights := map[string]int{"a": 3, "b": 1}
	q := weighted(weights, 1024)
	for i := 0; i < 300; i++ {
		if err := admit(q, fqJob("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := admit(q, fqJob("b", i)); err != nil {
			t.Fatal(err)
		}
	}
	jobs := drain(q)
	if len(jobs) != 400 {
		t.Fatalf("drained %d jobs, want 400", len(jobs))
	}
	// Both tenants stay active for the whole drain, so the order must be
	// exactly (a a a b) repeated.
	for i, j := range jobs {
		want := "a"
		if i%4 == 3 {
			want = "b"
		}
		if j.tenant != want {
			t.Fatalf("pop %d from tenant %q, want %q (DRR 3:1 interleave broken)", i, j.tenant, want)
		}
	}
}

// TestFairQueueNoStarvation: a single job from a quiet tenant lands behind a
// 1000-job flood and must still be dequeued within one DRR round — not after
// the flood.
func TestFairQueueNoStarvation(t *testing.T) {
	weights := map[string]int{"flood": 4, "quiet": 1}
	q := weighted(weights, 2048)
	for i := 0; i < 1000; i++ {
		if err := admit(q, fqJob("flood", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := admit(q, fqJob("quiet", 0)); err != nil {
		t.Fatal(err)
	}
	for i, j := range drain(q) {
		if j.tenant == "quiet" {
			// One full flood quantum (4) may precede it, never more.
			if i > 4 {
				t.Fatalf("quiet tenant's job popped at position %d, want <= 4", i)
			}
			return
		}
	}
	t.Fatal("quiet tenant's job never popped")
}

// TestFairQueueBounds: the per-tenant depth bound refuses one tenant without
// touching another's headroom, and the total bound still backstops everyone.
// Journal-recovered jobs are exempt from both.
func TestFairQueueBounds(t *testing.T) {
	q := newTenantTable(TenantLimits{}, nil, 6, 2)
	for i := 0; i < 2; i++ {
		if err := admit(q, fqJob("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := admit(q, fqJob("a", 2)); !errors.Is(err, errTenantFull) {
		t.Fatalf("tenant a's 3rd push: %v, want errTenantFull", err)
	}
	if d := q.depth("a"); d != 2 {
		t.Fatalf("tenant a depth = %d, want 2", d)
	}
	// Another tenant is unaffected by a's refusal.
	for i := 0; i < 2; i++ {
		if err := admit(q, fqJob("b", i)); err != nil {
			t.Fatalf("tenant b push %d: %v", i, err)
		}
	}
	// Total bound: 4 queued, cap 6 — two more singles fit, the next does not.
	if err := admit(q, fqJob("c", 0)); err != nil {
		t.Fatal(err)
	}
	if err := admit(q, fqJob("d", 0)); err != nil {
		t.Fatal(err)
	}
	if err := admit(q, fqJob("e", 0)); !errors.Is(err, errQueueFull) {
		t.Fatalf("push past total bound: %v, want errQueueFull", err)
	}
	// Recovered jobs bypass both bounds: they must never be dropped.
	q.push(fqJob("a", 99))
	if d := q.depth("a"); d != 3 {
		t.Fatalf("tenant a depth after recovered push = %d, want 3", d)
	}
}

// TestFairQueueConcurrent hammers the queue from many producers and
// consumers under -race: no job may be lost or duplicated, and each tenant's
// jobs must pop in its own push order (per-tenant FIFO).
func TestFairQueueConcurrent(t *testing.T) {
	const tenants, perTenant, consumers = 8, 200, 4
	weights := map[string]int{"t0": 4, "t1": 2}
	q := weighted(weights, tenants*perTenant)

	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				for admit(q, fqJob(tenant, i)) != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}(fmt.Sprintf("t%d", ti))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Each consumer logs its own pops: a shared log would record two
	// consumers' pops in whichever order they reach the lock, not the order
	// the queue handed the jobs out.
	var total atomic.Int64
	logs := make([][]*job, consumers)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for {
				j, ok := q.pop(ctx, nil)
				if !ok {
					return
				}
				logs[c] = append(logs[c], j)
				if total.Add(1) == tenants*perTenant {
					cancel() // release the other consumers
					return
				}
			}
		}(c)
	}
	wg.Wait()
	cwg.Wait()

	if n := total.Load(); n != tenants*perTenant {
		t.Fatalf("popped %d jobs, want %d (lost or duplicated work)", n, tenants*perTenant)
	}
	// Every tenant's exact id set came out once each ...
	seen := make(map[string]int)
	for _, log := range logs {
		for _, j := range log {
			seen[j.id]++
		}
	}
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		for i := 0; i < perTenant; i++ {
			if id := fqJob(tenant, i).id; seen[id] != 1 {
				t.Fatalf("job %s popped %d times, want 1", id, seen[id])
			}
		}
	}
	// ... and each consumer saw every tenant's jobs in push order (ids are
	// zero-padded, so string order is push order within a tenant).
	for c, log := range logs {
		last := make(map[string]string)
		for _, j := range log {
			if prev, ok := last[j.tenant]; ok && j.id <= prev {
				t.Fatalf("consumer %d popped %s after %s (per-tenant FIFO broken)", c, j.id, prev)
			}
			last[j.tenant] = j.id
		}
	}
}

// TestFairQueueShareConvergence: under sustained backlog, each tenant's share
// of a dequeue window converges to weight proportionality.
func TestFairQueueShareConvergence(t *testing.T) {
	weights := map[string]int{"gold": 6, "silver": 3, "bronze": 1}
	q := weighted(weights, 10000)
	for tenant := range weights {
		for i := 0; i < 1000; i++ {
			if err := admit(q, fqJob(tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Dequeue a window small enough that every tenant stays backlogged.
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[q.tryPop().tenant]++
	}
	for tenant, w := range weights {
		want := 1000 * w / 10 // weights sum to 10
		got := counts[tenant]
		// DRR guarantees convergence within one quantum per round.
		if got < want-w || got > want+w {
			t.Fatalf("tenant %s got %d of 1000 pops, want %d±%d", tenant, got, want, w)
		}
	}
}

// TestFairQueuePopPriority: shutdown and drain take priority over queued
// work — a ready queue must not tempt a stopping worker into one more job.
func TestFairQueuePopPriority(t *testing.T) {
	q := newTenantTable(TenantLimits{}, nil, 16, 0)
	if err := admit(q, fqJob("", 0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if j, ok := q.pop(context.Background(), stop); ok {
		t.Fatalf("Pop returned job %s after stop, want ok=false", j.id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if j, ok := q.pop(ctx, nil); ok {
		t.Fatalf("Pop returned job %s after ctx cancel, want ok=false", j.id)
	}
	// The job is still there for a live consumer.
	if j, ok := q.pop(context.Background(), make(chan struct{})); !ok || j.id != fqJob("", 0).id {
		t.Fatalf("live Pop = (%v, %v), want the queued job", j, ok)
	}
}

// TestQuotasRate: deterministic token-bucket behaviour under an injected
// clock — burst, refusal, honest millisecond retry hint, refill.
func TestQuotasRate(t *testing.T) {
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	q := newTenantTable(TenantLimits{}, map[string]TenantLimits{
		"metered": {SubmitRate: 2, SubmitBurst: 2},
		"glacial": {SubmitRate: 1e-300},
	}, 64, 0)
	q.now = func() time.Time { return now }

	// The unlimited default tenant always passes.
	for i := 0; i < 100; i++ {
		if ok, _ := q.rate(""); !ok {
			t.Fatal("unlimited tenant refused")
		}
	}
	// Burst of 2, then refusal with the exact time to the next whole token:
	// at 2 tokens/s a fully spent bucket refills one token in 500ms.
	for i := 0; i < 2; i++ {
		if ok, _ := q.rate("metered"); !ok {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	ok, wait := q.rate("metered")
	if ok {
		t.Fatal("over-burst admit succeeded")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("retry hint = %s, want exactly 500ms", wait)
	}
	// Sleeping exactly the hint must find a whole token.
	now = now.Add(wait)
	if ok, _ := q.rate("metered"); !ok {
		t.Fatal("admit after honest wait refused")
	}
	// And the bucket never banks beyond its burst.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := q.rate("metered"); !ok {
			t.Fatalf("post-idle admit %d refused", i)
		}
	}
	if ok, _ := q.rate("metered"); ok {
		t.Fatal("idle hour banked more than the burst")
	}
	// A rate too slow for a Duration still hints a long wait, not the
	// 1ms floor.
	if ok, _ := q.rate("glacial"); !ok {
		t.Fatal("glacial tenant's first submission refused")
	}
	if ok, wait := q.rate("glacial"); ok || wait < 24*time.Hour {
		t.Fatalf("glacial tenant's second submission: ok=%v retry hint %s, want a refusal of over a day", ok, wait)
	}
}

// TestQuotasInflightBytes: the byte allowance charges, refuses at the cap,
// and releases idempotently at zero.
func TestQuotasInflightBytes(t *testing.T) {
	q := newTenantTable(TenantLimits{MaxInflightBytes: 100}, nil, 64, 0)
	body := func(tenant string, n int64) *job { return &job{tenant: tenant, bodyBytes: n} }
	a40 := body("a", 40)
	if admit(q, body("a", 60)) != nil || admit(q, a40) != nil {
		t.Fatal("admits within the cap refused")
	}
	if err := admit(q, body("a", 1)); !errors.Is(err, errBytesQuota) {
		t.Fatalf("admit beyond the cap: %v, want errBytesQuota", err)
	}
	// Another tenant has its own allowance.
	if admit(q, body("b", 100)) != nil {
		t.Fatal("tenant b refused by tenant a's usage")
	}
	q.release(a40)
	if got := inflight(q, "a"); got != 60 {
		t.Fatalf("inflight after release = %d, want 60", got)
	}
	if admit(q, body("a", 40)) != nil {
		t.Fatal("admit after release refused")
	}
	// Over-release clamps at zero rather than going negative.
	q.release(body("a", 1000))
	if got := inflight(q, "a"); got != 0 {
		t.Fatalf("inflight after over-release = %d, want 0", got)
	}
}

// TestIdleTenantsReclaimed: a tenant has a record only while it holds state
// a fresh one would not, and dropping an idle record changes no decision.
func TestIdleTenantsReclaimed(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	submit := func(req harness.Request, tenant string) JobStatus {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/sims?wait=1", bytes.NewReader(body))
		r.Header.Set(HeaderTenant, tenant)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var st JobStatus
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &st) != nil || st.State != StateDone {
			t.Fatalf("tenant %s: HTTP %d %s", tenant, w.Code, w.Body.Bytes())
		}
		return st
	}

	// 1000 unlimited tenants, each with one finished job, leave nothing.
	req := testLoopReq()
	for i := 0; i < 1000; i++ {
		req.Seed = int64(1000 + i)
		submit(req, fmt.Sprintf("t%04d", i))
	}
	if n := records(s.tenants); n != 0 {
		t.Fatalf("%d tenant records left after every job finished, want 0", n)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if bytes.Contains(w.Body.Bytes(), []byte(`"tenants"`)) {
		t.Fatalf("healthz lists idle tenants: %s", w.Body.Bytes())
	}
	// A cache hit from a tenant never seen before creates no record.
	if st := submit(req, "newcomer"); !st.Cached {
		t.Fatal("resubmission was not a cache hit")
	}
	if n := records(s.tenants); n != 0 {
		t.Fatalf("a cache hit left %d tenant records, want 0", n)
	}

	// A metered tenant keeps its record while its bucket refills. The
	// reference table's record can never go (a job stays queued on it), so
	// its decisions are those of a record that is never dropped.
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	metered := map[string]TenantLimits{"m": {SubmitRate: 2, SubmitBurst: 2}}
	q, ref := newTenantTable(TenantLimits{}, metered, 64, 0), newTenantTable(TenantLimits{}, metered, 64, 0)
	q.now = func() time.Time { return now }
	ref.now = q.now
	ref.push(fqJob("m", 0))
	if ok, _ := q.rate("unlimited"); !ok || records(q) != 0 {
		t.Fatalf("rate check of an unlimited tenant: ok=%v, %d records, want ok and none", ok, records(q))
	}
	steps := []time.Duration{0, 0, 0, 250 * time.Millisecond, 300 * time.Millisecond, 2 * time.Second,
		0, 0, 0, 100 * time.Millisecond, 400 * time.Millisecond, 0, time.Hour, 0, 0, 0}
	for i, d := range steps {
		now = now.Add(d)
		if d > 0 {
			q.snapshot() // listing the table for healthz sweeps it
			// Past 500ms of refill from the last spend the bucket is full.
			if full := d >= 2*time.Second; full != (records(q) == 0) {
				t.Fatalf("step %d: %d records after %s of refill", i, records(q), d)
			}
		}
		ok, wait := q.rate("m")
		wantOK, wantWait := ref.rate("m")
		if ok != wantOK || wait != wantWait {
			t.Fatalf("step %d: rate = (%v, %s), a never-dropped record gives (%v, %s)", i, ok, wait, wantOK, wantWait)
		}
	}
}

// TestTenantSweepAmortised: a record's creation sweeps the table only once
// it has doubled since the last sweep, so n distinct metered tenants cost
// O(n) bucket checks rather than O(n²), and a table of refilled records
// still shrinks to the live ones.
func TestTenantSweepAmortised(t *testing.T) {
	clockReads := func(n int) int {
		now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
		reads := 0
		q := newTenantTable(TenantLimits{SubmitRate: 1}, nil, 64, 0)
		// Creating a metered record, spending from its bucket and checking
		// whether it is idle each read the clock once.
		q.now = func() time.Time { reads++; return now }
		for i := 0; i < n; i++ {
			if ok, _ := q.rate(fmt.Sprintf("a%05d", i)); !ok {
				t.Fatalf("n=%d: first submission of tenant %d refused", n, i)
			}
		}
		if r := records(q); r != n {
			t.Fatalf("n=%d: %d records with every bucket partly spent, want %d", n, r, n)
		}
		// One tenant a second, each refilled before the next arrives: at
		// most one is live, so once the table has doubled it shrinks.
		for i := 0; i < n; i++ {
			now = now.Add(time.Second)
			q.rate(fmt.Sprintf("b%05d", i))
		}
		if r := records(q); r > 2 {
			t.Fatalf("n=%d: %d records left with at most one live, want ≤ 2", n, r)
		}
		return reads
	}
	small, large := clockReads(1000), clockReads(4000)
	if small > 10*1000 || large > 5*small {
		t.Fatalf("clock reads: %d for 1000 tenants, %d for 4000; want linear growth", small, large)
	}
}

// FuzzParseTenantOverride: no spec panics the parser, and an accepted one
// names a tenant a submission may carry and has finite, non-negative limits.
func FuzzParseTenantOverride(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		name, l, err := ParseTenantOverride(spec)
		if err != nil {
			return
		}
		if !validTenant(name) {
			t.Fatalf("%q: accepted tenant name %q", spec, name)
		}
		for _, v := range []float64{l.SubmitRate, float64(l.SubmitBurst), float64(l.MaxInflightBytes), float64(l.Weight)} {
			if !(v >= 0 && v <= math.MaxFloat64) {
				t.Fatalf("%q: accepted limits %+v", spec, l)
			}
		}
	})
}
