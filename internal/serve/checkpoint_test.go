package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// testCkpt builds a minimally-valid RunCheckpoint for journal-level tests.
// The machine payload is a real checkpoint captured from a tiny pipeline via
// the harness, so Validate() passes.
var testCkptOnce struct {
	sync.Once
	machine json.RawMessage
}

func testCkpt(t *testing.T, loop, variant string, cycle int64) harness.RunCheckpoint {
	t.Helper()
	testCkptOnce.Do(func() {
		var mu sync.Mutex
		ctx := harness.WithCheckpoints(context.Background(), 1000, func(rc harness.RunCheckpoint) {
			mu.Lock()
			defer mu.Unlock()
			if testCkptOnce.machine == nil {
				data, err := json.Marshal(rc.Machine)
				if err != nil {
					panic(err)
				}
				testCkptOnce.machine = data
			}
		})
		if _, err := harness.Run(ctx, bigLoopReq(8192, 7)); err != nil {
			panic(err)
		}
	})
	rc := harness.RunCheckpoint{
		SchemaVersion: harness.SchemaVersion, CodeVersion: harness.CodeVersion,
		Bench: "j", Loop: loop, Variant: variant, Seed: 7, Cycle: cycle,
	}
	if err := json.Unmarshal(testCkptOnce.machine, &rc.Machine); err != nil {
		t.Fatal(err)
	}
	if err := rc.Validate(); err != nil {
		t.Fatalf("synthetic checkpoint invalid: %v", err)
	}
	return rc
}

// bigLoopReq is a loop request that crosses enough cancellation-poll
// boundaries to emit periodic checkpoints (and, at large trips, to stay
// running long enough for a drain or kill to catch it mid-flight).
func bigLoopReq(trip int, seed int64) harness.Request {
	return harness.Request{
		Mode: harness.ModeLoop, Bench: "svc", Seed: seed,
		Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: "svc", Trip: trip, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}},
	}
}

// TestJournalCheckpointReplay drives the ckpt/preempt half of the replay
// state machine: the latest checkpoint per simulation survives for pending
// keys, terminal records drop them, preempt keeps the key pending, and
// checkpoints from a different build are discarded rather than resumed.
func TestJournalCheckpointReplay(t *testing.T) {
	dir := t.TempDir()
	req := testLoopReq()
	now := time.Now()

	cpOld := testCkpt(t, "l1", "scalar", 5000)
	cpNew := testCkpt(t, "l1", "scalar", 9000)
	cpSRV := testCkpt(t, "l1", "srv", 7000)
	cpForeign := testCkpt(t, "l1", "srv", 8000)
	cpForeign.CodeVersion = "srvsim-0.0.0"
	cpStale := testCkpt(t, "l1", "srv", 8500)
	cpStale.Machine.SchemaVersion = pipeline.CheckpointSchemaVersion - 1
	cpDone := testCkpt(t, "l1", "scalar", 1000)
	cpFailed := testCkpt(t, "l1", "scalar", 2000)

	appendAll(t, dir,
		// Key a: pending with checkpoints; the later scalar one wins, the
		// foreign-build and stale-schema ones are dropped.
		journalRecord{Op: opSubmit, Key: "a", At: now, Req: &req},
		journalRecord{Op: opStart, Key: "a", At: now},
		journalRecord{Op: opCkpt, Key: "a", At: now, Checkpoint: &cpOld},
		journalRecord{Op: opCkpt, Key: "a", At: now, Checkpoint: &cpSRV},
		journalRecord{Op: opCkpt, Key: "a", At: now, Checkpoint: &cpNew},
		journalRecord{Op: opCkpt, Key: "a", At: now, Checkpoint: &cpForeign},
		journalRecord{Op: opCkpt, Key: "a", At: now, Checkpoint: &cpStale},
		journalRecord{Op: opPreempt, Key: "a", At: now, Error: "drain"},
		// Key b: done absorbs its checkpoints — nothing left to resume.
		journalRecord{Op: opSubmit, Key: "b", At: now, Req: &req},
		journalRecord{Op: opCkpt, Key: "b", At: now, Checkpoint: &cpDone},
		journalRecord{Op: opDone, Key: "b", At: now, Result: json.RawMessage(`{"x":1}`)},
		// Key c: a genuine failure invalidates the run's checkpoints.
		journalRecord{Op: opSubmit, Key: "c", At: now, Req: &req},
		journalRecord{Op: opCkpt, Key: "c", At: now, Checkpoint: &cpFailed},
		journalRecord{Op: opFail, Key: "c", At: now, Error: "boom"},
	)

	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.pending) != 1 || st.pending[0].key != "a" {
		t.Fatalf("pending = %+v", st.pending)
	}
	got := st.pending[0].ckpts
	if len(got) != 2 {
		t.Fatalf("retained %d checkpoints, want 2 (latest scalar + srv): %+v", len(got), got)
	}
	byV := map[string]harness.RunCheckpoint{}
	for _, cp := range got {
		byV[cp.Variant] = cp
	}
	if byV["scalar"].Cycle != 9000 {
		t.Errorf("scalar checkpoint cycle = %d, want the latest (9000)", byV["scalar"].Cycle)
	}
	if byV["srv"].Cycle != 7000 {
		t.Errorf("srv checkpoint cycle = %d, want 7000 (foreign-build 8000 and stale-schema 8500 dropped)", byV["srv"].Cycle)
	}
	if len(st.completed) != 1 || len(st.completed[0].ckpts) != 0 {
		t.Fatalf("completed = %+v", st.completed)
	}
	if st.failed != 1 {
		t.Fatalf("failed = %d, want 1", st.failed)
	}

	// Compaction must carry the pending key's checkpoints across the rewrite.
	if err := compactJournal(dir, st, now); err != nil {
		t.Fatal(err)
	}
	st2, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.pending) != 1 || len(st2.pending[0].ckpts) != 2 {
		t.Fatalf("checkpoints lost in compaction: %+v", st2.pending)
	}
	if st2.failed != 0 {
		t.Fatal("failed keys should not survive compaction")
	}
}

// TestPreemptAndResume is the drain half of the tentpole: a server whose
// drain budget expires mid-job preempts it (journaling a preempt record on
// top of the periodic checkpoints), and the next server over the same
// journal resumes the job from its last checkpoint and finishes it with a
// byte-identical marshalled Result.
func TestPreemptAndResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := bigLoopReq(150_000, 7)

	s1, c1 := startServer(t, Config{JournalDir: dir, CheckpointEvery: 5000, Workers: 1})
	if _, err := c1.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Wait for the job to emit at least one journaled checkpoint, proving a
	// preemption will have something to resume from.
	jpath := filepath.Join(dir, journalFile)
	deadline := time.Now().Add(time.Minute)
	for s1.met.checkpointsJournaled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled before the deadline")
		}
		if s1.met.jobsDone.Load() > 0 {
			t.Fatal("job finished before it could be preempted; enlarge the workload")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain with an already-expired budget: the in-flight job is cancelled
	// cooperatively and must be journaled as preempted, not failed.
	dctx, dcancel := context.WithCancel(context.Background())
	dcancel()
	if err := s1.Drain(dctx); err != context.Canceled {
		t.Fatalf("drain returned %v, want context.Canceled", err)
	}
	if n := s1.met.jobsPreempted.Load(); n != 1 {
		t.Fatalf("jobsPreempted = %d, want 1", n)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"op":"preempt"`)) {
		t.Fatalf("journal carries no preempt record:\n%s", data)
	}

	// A fresh server over the same journal resumes the preempted job from
	// its checkpoints and completes it. The wider checkpoint interval keeps
	// the resumed run from spending its time fsyncing journal records.
	s2, c2 := startServer(t, Config{JournalDir: dir, CheckpointEvery: 500_000, Workers: 1})
	if n := s2.met.journalReplayedResumed.Load(); n != 1 {
		t.Fatalf("replayedResumed = %d, want 1", n)
	}
	deadline = time.Now().Add(time.Minute)
	for s2.met.jobsDone.Load() < 1 {
		if n := s2.met.jobsFailed.Load(); n > 0 {
			t.Fatalf("resumed job failed (%d failures)", n)
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
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
		t.Fatalf("resumed result not served from cache: %+v", st)
	}
	var got harness.Result
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := json.Marshal(got)
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("resumed job diverged from an uninterrupted run:\n  %s\n  %s", wantBytes, gotBytes)
	}
}

// TestJournalCompactionRacesDrain (satellite): a new process may replay and
// compact the journal while the old process is still draining — appending
// preempt and checkpoint records through its own file handle. The rename-
// based compaction must never corrupt the log: whatever interleaving wins,
// replay afterwards succeeds and the in-flight key is still live (pending
// with its request), never lost or torn.
func TestJournalCompactionRacesDrain(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := bigLoopReq(150_000, 7)
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	s, c := startServer(t, Config{JournalDir: dir, CheckpointEvery: 5000, Workers: 1})
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for s.met.checkpointsJournaled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled before the deadline")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammer replay+compact concurrently with the drain's final appends.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := replayJournal(dir)
			if err != nil {
				t.Errorf("replay during drain: %v", err)
				return
			}
			if err := compactJournal(dir, st, time.Now()); err != nil {
				t.Errorf("compact during drain: %v", err)
				return
			}
		}
	}()
	dctx, dcancel := context.WithCancel(context.Background())
	dcancel()
	_ = s.Drain(dctx)
	close(stop)
	wg.Wait()

	// The journal must still replay cleanly and the key must still be live.
	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated {
		t.Fatal("post-race journal has a torn record")
	}
	found := false
	for _, e := range st.pending {
		if e.key == key && e.req != nil {
			found = true
		}
	}
	for _, e := range st.completed {
		if e.key == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-flight key lost by the compaction race: %+v", st)
	}

	// And a fresh server over the raced journal finishes the job.
	s2, _ := startServer(t, Config{JournalDir: dir, Workers: 1})
	deadline = time.Now().Add(time.Minute)
	for s2.met.jobsDone.Load() < 1 && s2.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never completed after the compaction race")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
