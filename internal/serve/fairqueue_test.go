package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fqJob builds a bare queue entry; the fair queue only reads id and tenant.
func fqJob(tenant string, n int) *job {
	return &job{id: fmt.Sprintf("%s-%04d", tenantName(tenant), n), tenant: tenant}
}

// drain pops every queued job without blocking.
func drain(q *fairQueue) []*job {
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
	q := newFairQueue(256, 0, nil)
	for i := 0; i < 200; i++ {
		if err := q.Push(fqJob("", i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i, j := range drain(q) {
		if want := fqJob("", i).id; j.id != want {
			t.Fatalf("pop %d = %s, want %s (FIFO order broken)", i, j.id, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.Len())
	}
}

// TestFairQueueDRROrder pins the exact deficit-round-robin interleave: a
// weight-3 tenant releases three jobs for every one of a weight-1 tenant
// while both have work queued.
func TestFairQueueDRROrder(t *testing.T) {
	weights := map[string]int{"a": 3, "b": 1}
	q := newFairQueue(1024, 0, func(tenant string) int { return weights[tenant] })
	for i := 0; i < 300; i++ {
		if err := q.Push(fqJob("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := q.Push(fqJob("b", i)); err != nil {
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
	q := newFairQueue(2048, 0, func(tenant string) int { return weights[tenant] })
	for i := 0; i < 1000; i++ {
		if err := q.Push(fqJob("flood", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(fqJob("quiet", 0)); err != nil {
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
	q := newFairQueue(6, 2, nil)
	for i := 0; i < 2; i++ {
		if err := q.Push(fqJob("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(fqJob("a", 2)); !errors.Is(err, errTenantFull) {
		t.Fatalf("tenant a's 3rd push: %v, want errTenantFull", err)
	}
	if d := q.TenantDepth("a"); d != 2 {
		t.Fatalf("tenant a depth = %d, want 2", d)
	}
	// Another tenant is unaffected by a's refusal.
	for i := 0; i < 2; i++ {
		if err := q.Push(fqJob("b", i)); err != nil {
			t.Fatalf("tenant b push %d: %v", i, err)
		}
	}
	// Total bound: 4 queued, cap 6 — two more singles fit, the next does not.
	if err := q.Push(fqJob("c", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(fqJob("d", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(fqJob("e", 0)); !errors.Is(err, errQueueFull) {
		t.Fatalf("push past total bound: %v, want errQueueFull", err)
	}
	// Recovered jobs bypass both bounds: they must never be dropped.
	q.pushRecovered(fqJob("a", 99))
	if d := q.TenantDepth("a"); d != 3 {
		t.Fatalf("tenant a depth after recovered push = %d, want 3", d)
	}
}

// TestFairQueueConcurrent hammers the queue from many producers and
// consumers under -race: no job may be lost or duplicated, and each tenant's
// jobs must pop in its own push order (per-tenant FIFO).
func TestFairQueueConcurrent(t *testing.T) {
	const tenants, perTenant, consumers = 8, 200, 4
	weights := map[string]int{"t0": 4, "t1": 2}
	q := newFairQueue(tenants*perTenant, 0, func(tenant string) int { return weights[tenant] })

	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				for q.Push(fqJob(tenant, i)) != nil {
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
				j, ok := q.Pop(ctx, nil)
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
	q := newFairQueue(10000, 0, func(tenant string) int { return weights[tenant] })
	for tenant := range weights {
		for i := 0; i < 1000; i++ {
			if err := q.Push(fqJob(tenant, i)); err != nil {
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
	q := newFairQueue(16, 0, nil)
	if err := q.Push(fqJob("", 0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if j, ok := q.Pop(context.Background(), stop); ok {
		t.Fatalf("Pop returned job %s after stop, want ok=false", j.id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if j, ok := q.Pop(ctx, nil); ok {
		t.Fatalf("Pop returned job %s after ctx cancel, want ok=false", j.id)
	}
	// The job is still there for a live consumer.
	if j, ok := q.Pop(context.Background(), make(chan struct{})); !ok || j.id != fqJob("", 0).id {
		t.Fatalf("live Pop = (%v, %v), want the queued job", j, ok)
	}
}
