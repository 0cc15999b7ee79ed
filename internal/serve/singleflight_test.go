package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"srvsim/internal/harness"
)

// unstarted builds a server whose workers have not started, so queued jobs
// stay queued until the test calls Start.
func unstarted(t *testing.T, cfg Config) (*Server, *Client, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1})), ts.URL
}

// journalOps counts the journal's records by op.
func journalOps(t *testing.T, dir string) map[journalOp]int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops := map[journalOp]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		ops[rec.Op]++
	}
	return ops
}

// record returns the job record held for key.
func (s *Server) record(key string) *job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobs[key]
}

// TestSingleFlight: two submissions of one request name one job — its
// CacheKey — that is queued, journaled and executed once, and every waiter
// gets the same bytes.
func TestSingleFlight(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := unstarted(t, Config{JournalDir: dir, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := testLoopReq()
	first, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != first.CacheKey || second.ID != first.ID {
		t.Fatalf("job IDs %q, %q; want both the cache key %q", first.ID, second.ID, first.CacheKey)
	}
	s.mu.RLock()
	records := len(s.jobs)
	s.mu.RUnlock()
	if records != 1 {
		t.Fatalf("%d job records, want 1", records)
	}
	if d := s.met.queued.Load(); d != 1 {
		t.Fatalf("queue depth %d, want 1", d)
	}
	if n := s.met.coalesced.Load(); n != 1 {
		t.Fatalf("jobs_coalesced = %d, want 1", n)
	}
	if n := journalOps(t, dir)[opSubmit]; n != 1 {
		t.Fatalf("%d journaled submits, want 1", n)
	}

	// Two synchronous waiters join the queued job, then the workers start.
	var wg sync.WaitGroup
	got := make([]JobStatus, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.post(ctx, req, true)
		}(i)
	}
	for s.met.coalesced.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if !bytes.Equal(got[0].Result, got[1].Result) || len(got[0].Result) == 0 {
		t.Fatalf("waiters got different results:\n  %s\n  %s", got[0].Result, got[1].Result)
	}
	if n := s.met.jobsDone.Load(); n != 1 {
		t.Fatalf("jobs_done = %d, want 1", n)
	}
}

// TestFailedJobIsReplaced: a resubmission of a key whose job failed starts
// a fresh job under the same ID instead of joining the failed one.
func TestFailedJobIsReplaced(t *testing.T) {
	s, c := startServer(t, Config{JobTimeout: time.Nanosecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := testLoopReq()
	if _, err := c.post(ctx, req, true); err == nil {
		t.Fatal("timed-out job reported success")
	}
	st, err := c.Status(ctx, mustKey(t, req))
	if err != nil || st.State != StateFailed {
		t.Fatalf("status of the timed-out job = %+v, %v; want failed", st, err)
	}
	old := s.record(st.ID)
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	if s.record(st.ID) == old {
		t.Fatal("resubmission did not replace the failed job")
	}
	if n := s.met.submitted.Load(); n != 2 {
		t.Fatalf("jobs_submitted = %d, want 2", n)
	}
	if n := s.met.coalesced.Load(); n != 0 {
		t.Fatalf("jobs_coalesced = %d, want 0", n)
	}
}

// TestJoinLiftsDeadline: while a job is queued, a joiner's later deadline
// lifts the job's, and a joiner with no deadline removes it, so the job
// still runs after its creator's deadline has passed.
func TestJoinLiftsDeadline(t *testing.T) {
	s, _, base := unstarted(t, Config{Workers: 1})
	req := testLoopReq()
	key := mustKey(t, req)

	if resp, _, _ := rawSubmit(t, base, req, map[string]string{HeaderDeadlineMS: "50"}); resp.StatusCode != 202 {
		t.Fatalf("creator: HTTP %d", resp.StatusCode)
	}
	j := s.record(key)
	j.mu.Lock()
	creator := j.deadline
	j.mu.Unlock()

	rawSubmit(t, base, req, map[string]string{HeaderDeadlineMS: "60000"})
	j.mu.Lock()
	lifted := j.deadline
	j.mu.Unlock()
	if !lifted.After(creator.Add(time.Second)) {
		t.Fatalf("a later joiner's deadline did not lift the job's: %v -> %v", creator, lifted)
	}

	rawSubmit(t, base, req, nil)
	j.mu.Lock()
	none := j.deadline
	j.mu.Unlock()
	if !none.IsZero() {
		t.Fatalf("a joiner without a deadline left the job's at %v", none)
	}

	time.Sleep(100 * time.Millisecond) // the creator's deadline passes
	s.Start()
	select {
	case <-j.done:
	case <-time.After(time.Minute):
		t.Fatal("job never finished")
	}
	if st := j.status(); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
}

func mustKey(t *testing.T, req harness.Request) string {
	t.Helper()
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSingleFlightConcurrentCreators: racing first submissions of one key
// queue and journal it once; every other submission joins.
func TestSingleFlightConcurrentCreators(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := unstarted(t, Config{JournalDir: dir, Workers: 1})
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(context.Background(), testLoopReq())
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if errs[i] != nil || ids[i] != ids[0] {
			t.Fatalf("submission %d: id %q, err %v; want %q", i, ids[i], errs[i], ids[0])
		}
	}
	if d, j := s.met.queued.Load(), s.met.coalesced.Load(); d != 1 || j != n-1 {
		t.Fatalf("queue depth %d, coalesced %d; want 1 and %d", d, j, n-1)
	}
	if ops := journalOps(t, dir); ops[opSubmit] != 1 || ops[opFail] != 0 {
		t.Fatalf("journal ops %v, want one submit and no fail", ops)
	}
}
