package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/workloads"
)

// appendAll writes a sequence of records through a fresh journal handle.
func appendAll(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		jl.append(rec)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayStateMachine drives the per-key reduction: done is
// absorbing with its result bytes, submit-after-fail re-arms a key, and a
// bare submit stays pending.
func TestJournalReplayStateMachine(t *testing.T) {
	dir := t.TempDir()
	reqA, reqB, reqC := testLoopReq(), testLoopReq(), testLoopReq()
	reqB.Seed, reqC.Seed = 8, 9
	resA := json.RawMessage(`{"loop":{"speedup":2.5}}`)
	now := time.Now()
	// Key a's records are seed-era lines, which also carried an "id" field:
	// replay must ignore it.
	reqAJSON, err := json.Marshal(reqA)
	if err != nil {
		t.Fatal(err)
	}
	const at = `"at":"2024-01-01T00:00:00Z"`
	seedEra := fmt.Sprintf(`{"op":"submit","key":"a","id":"sim-1",%s,"req":%s}
{"op":"start","key":"a","id":"sim-1",%s}
{"op":"done","key":"a","id":"sim-1",%s,"result":%s}
`, at, reqAJSON, at, at, resA)
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(seedEra), 0o644); err != nil {
		t.Fatal(err)
	}
	appendAll(t, dir,
		journalRecord{Op: opSubmit, Key: "b", At: now, Req: &reqB},
		journalRecord{Op: opStart, Key: "b", At: now},
		journalRecord{Op: opSubmit, Key: "c", At: now, Req: &reqC},
		journalRecord{Op: opFail, Key: "c", At: now, Error: "boom"},
		// A done key ignores later transitions; a failed key re-arms on submit.
		journalRecord{Op: opFail, Key: "a", At: now, Error: "ignored"},
	)

	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(st.completed) != 1 || st.completed[0].key != "a" || !bytes.Equal(st.completed[0].result, resA) {
		t.Fatalf("completed = %+v", st.completed)
	}
	if len(st.pending) != 1 || st.pending[0].key != "b" || st.pending[0].req.Seed != 8 {
		t.Fatalf("pending = %+v", st.pending)
	}
	if st.failed != 1 {
		t.Fatalf("failed = %d, want 1", st.failed)
	}

	// Resubmitting the failed key re-arms it as pending.
	appendAll(t, dir, journalRecord{Op: opSubmit, Key: "c", At: now, Req: &reqC})
	st, err = replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.pending) != 2 || st.pending[1].key != "c" {
		t.Fatalf("re-armed pending = %+v", st.pending)
	}
}

// TestJournalTornTail: a crash can tear only the final line (records are
// single-write+fsync); replay must recover the intact prefix and flag the
// truncation rather than fail.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	req := testLoopReq()
	appendAll(t, dir,
		journalRecord{Op: opSubmit, Key: "a", At: time.Now(), Req: &req},
		journalRecord{Op: opDone, Key: "a", At: time.Now(), Result: json.RawMessage(`{"x":1}`)},
	)
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","key":"b","req":{"mo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.truncated {
		t.Fatal("torn tail not detected")
	}
	if len(st.completed) != 1 || st.completed[0].key != "a" {
		t.Fatalf("intact prefix lost: %+v", st)
	}
	if len(st.pending) != 0 {
		t.Fatalf("torn record resurrected a job: %+v", st.pending)
	}
}

// TestJournalCompaction: compaction rewrites the log to exactly the live
// state, and replaying the compacted log reproduces it.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	reqA, reqB := testLoopReq(), testLoopReq()
	reqB.Seed = 8
	resA := json.RawMessage(`{"loop":{"speedup":2.5}}`)
	now := time.Now()
	appendAll(t, dir,
		journalRecord{Op: opSubmit, Key: "a", At: now, Req: &reqA},
		journalRecord{Op: opStart, Key: "a", At: now},
		journalRecord{Op: opDone, Key: "a", At: now, Result: resA},
		journalRecord{Op: opSubmit, Key: "b", At: now, Req: &reqB},
		journalRecord{Op: opSubmit, Key: "c", At: now, Req: &reqA},
		journalRecord{Op: opFail, Key: "c", At: now, Error: "boom"},
	)
	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := compactJournal(dir, st, now); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("compacted journal has %d records, want 2:\n%s", n, data)
	}
	st2, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.completed) != 1 || !bytes.Equal(st2.completed[0].result, resA) {
		t.Fatalf("completed lost in compaction: %+v", st2)
	}
	if len(st2.pending) != 1 || st2.pending[0].key != "b" {
		t.Fatalf("pending lost in compaction: %+v", st2)
	}
	if st2.failed != 0 {
		t.Fatal("terminally failed keys should not survive compaction")
	}
}

// TestJournalCompactionBoundedByCache: a restart keeps a done record only
// for a key the refilled result cache still holds, so the compacted journal
// holds at most CacheSize of them. The keys served are those an unbounded
// compaction serves, the newest CacheSize, and a second restart over the
// compacted journal serves the same keys again.
func TestJournalCompactionBoundedByCache(t *testing.T) {
	const cacheSize, done = 3, 8
	dir := t.TempDir()
	req := testLoopReq()
	now := time.Now()
	var recs []journalRecord
	for i := range done {
		key := fmt.Sprintf("k%d", i)
		recs = append(recs,
			journalRecord{Op: opSubmit, Key: key, At: now, Req: &req},
			journalRecord{Op: opDone, Key: key, At: now, Result: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))})
	}
	appendAll(t, dir, recs...)

	for restart := 1; restart <= 2; restart++ {
		s, err := New(Config{JournalDir: dir, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		for i := range done {
			key := fmt.Sprintf("k%d", i)
			if want := i >= done-cacheSize; s.cache.Has(key) != want {
				t.Errorf("restart %d: cache holds %s = %v, want %v", restart, key, !want, want)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte(`"op":"done"`)); n != cacheSize {
			t.Fatalf("restart %d: compacted journal holds %d done records, want %d:\n%s", restart, n, cacheSize, data)
		}
	}
}

// TestJournalRecoveryInProcess is the crash-recovery story without a real
// process kill (e2e_test.go does that): phase 1 completes one job and queues
// two more on a server whose workers never start, phase 2 opens the same
// journal and must (a) answer the completed job from cache byte-identically
// without re-executing, and (b) re-enqueue and finish the interrupted jobs.
func TestJournalRecoveryInProcess(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	doneReq := testLoopReq()
	queuedA, queuedB := testLoopReq(), testLoopReq()
	queuedA.Seed, queuedB.Seed = 101, 102

	// Phase 1: one completed job, then stop the workers and queue two jobs
	// that will never start — the "crash" leaves them journaled as pending.
	s1, c1 := startServer(t, Config{JournalDir: dir})
	first, err := c1.Do(ctx, doneReq)
	if err != nil {
		t.Fatal(err)
	}
	firstBytes, _ := json.Marshal(first)
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	s1b, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1b.Handler())
	c1b := NewClient(ts.URL)
	if _, err := c1b.Submit(ctx, queuedA); err != nil {
		t.Fatal(err)
	}
	if _, err := c1b.Submit(ctx, queuedB); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := s1b.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh server over the same journal.
	s2, c2 := startServer(t, Config{JournalDir: dir})
	if n := s2.met.journalReplayedDone.Load(); n != 1 {
		t.Fatalf("replayed done = %d, want 1", n)
	}
	if n := s2.met.journalReplayedRequeued.Load(); n != 2 {
		t.Fatalf("replayed requeued = %d, want 2", n)
	}

	// The completed job answers from cache, byte-identically, without running.
	st, err := c2.Submit(ctx, doneReq)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatalf("recovered result not served from cache: %+v", st)
	}
	var recovered harness.Result
	if err := json.Unmarshal(st.Result, &recovered); err != nil {
		t.Fatal(err)
	}
	recoveredBytes, _ := json.Marshal(recovered)
	if !bytes.Equal(firstBytes, recoveredBytes) {
		t.Fatalf("recovered cache entry differs:\n  %s\n  %s", firstBytes, recoveredBytes)
	}

	// The interrupted jobs finish on their own (they were re-enqueued, not
	// merely remembered); wait for both, then check each against a local run.
	deadline := time.Now().Add(time.Minute)
	for s2.met.jobsDone.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered jobs never completed (done = %d)", s2.met.jobsDone.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, req := range []harness.Request{queuedA, queuedB} {
		want, err := harness.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, _ := json.Marshal(want)
		st, err := c2.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("recovered job for seed %d not in cache: %+v", req.Seed, st)
		}
		var got harness.Result
		if err := json.Unmarshal(st.Result, &got); err != nil {
			t.Fatal(err)
		}
		gotBytes, _ := json.Marshal(got)
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("recovered job diverged from local run:\n  %s\n  %s", wantBytes, gotBytes)
		}
	}
}

// TestTerminalRecordBeforeWake: nobody learns that a job finished before its
// terminal record is on disk. The test holds the journal's lock from the
// middle of a run until past the end of the simulation; meanwhile neither a
// ?wait=1 submitter nor a progress stream may see the job terminal, a poll
// must still report it running and a resubmission must miss the cache. Once
// the lock is released, both finish and replay finds the done record.
func TestTerminalRecordBeforeWake(t *testing.T) {
	dir := t.TempDir()
	s, c := startServer(t, Config{Workers: 1, JournalDir: dir, Harness: &harness.Env{Parallelism: 1}})
	const loops = 4
	b := workloads.Benchmark{Name: "ordering", Suite: "test", Coverage: 1}
	for i := 0; i < loops; i++ {
		b.Loops = append(b.Loops, workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: fmt.Sprintf("l%d", i), Trip: 256, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}})
	}
	req := harness.Request{Mode: harness.ModeBenchmark, Bench: b.Name, BenchSpec: &b, Seed: 7}
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// The ?wait=1 submission creates the job and waits for it.
	waited := make(chan string, 1)
	go func() {
		resp, err := http.Post(c.base+"/v1/sims?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			waited <- err.Error()
			return
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			waited <- err.Error()
			return
		}
		waited <- string(st.State)
	}()

	// Take the journal lock once the job runs (its submit record, the only
	// one before the terminal record, is written) and before its last loop
	// reports progress. Holding j.mu while checking pauses the simulation:
	// a loop's progress report needs j.mu.
	held := false
	t.Cleanup(func() {
		if held {
			s.journal.mu.Unlock()
		}
	})
	var j *job
	for giveUp := time.Now().Add(time.Minute); !held; time.Sleep(time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatal("never caught the job running before its last loop finished")
		}
		s.mu.RLock()
		j = s.jobs[key]
		s.mu.RUnlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		if j.state == StateRunning && s.met.journalRecords.Load() == 1 && len(j.events) < loops {
			s.journal.mu.Lock()
			held = true
		}
		j.mu.Unlock()
	}

	// Tail the job's stream; report its terminal line.
	streamed := make(chan string, 1)
	go func() {
		resp, err := http.Get(c.base + "/v1/sims/" + key + "/stream")
		if err != nil {
			streamed <- err.Error()
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var line JobStatus
			if err := dec.Decode(&line); err != nil {
				streamed <- err.Error()
				return
			}
			if line.State != "" {
				streamed <- string(line.State)
				return
			}
		}
	}()

	// Wait out the simulation: every loop has reported progress, then give
	// the worker time to reach the terminal record.
	for giveUp := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		n := len(j.events)
		j.mu.Unlock()
		if n == loops {
			break
		}
		if time.Now().After(giveUp) {
			t.Fatalf("simulation stalled at %d of %d loops", n, loops)
		}
	}
	select {
	case got := <-waited:
		t.Fatalf("?wait=1 returned (%s) before the terminal record was journaled", got)
	case got := <-streamed:
		t.Fatalf("stream ended (%s) before the terminal record was journaled", got)
	case <-time.After(300 * time.Millisecond):
	}
	if st := s.jobStatus(j); st.State != StateRunning {
		t.Fatalf("poll reports %s before the terminal record was journaled", st.State)
	}
	if _, hit := s.cache.Get(key); hit {
		t.Fatal("result cached before the terminal record was journaled")
	}

	s.journal.mu.Unlock()
	held = false
	for name, ch := range map[string]chan string{"?wait=1": waited, "stream": streamed} {
		select {
		case got := <-ch:
			if got != string(StateDone) {
				t.Fatalf("%s ended with %q, want done", name, got)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s never returned after the journal was released", name)
		}
	}
	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.completed) != 1 || st.completed[0].key != key {
		t.Fatalf("journal holds %d completed jobs, want the one just reported done", len(st.completed))
	}
}
