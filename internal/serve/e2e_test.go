package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"srvsim/internal/harness"
)

// buildSrvd compiles the real daemon binary once per test run.
func buildSrvd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "srvd")
	cmd := exec.Command("go", "build", "-o", bin, "srvsim/cmd/srvd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building srvd: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves an ephemeral port for the daemon. The port is released
// before the daemon starts, so a tiny reuse race exists; in the test
// environment nothing else is binding.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startSrvd launches the daemon and waits until it answers /v1/healthz.
func startSrvd(t *testing.T, bin, addr, journal string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-addr", addr,
		"-journal", journal,
		"-job-workers", "1",
		"-parallel", "2",
		"-drain-timeout", "30s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("srvd logs:\n%s", logs.String())
		}
	})
	c := NewClient("http://"+addr, WithRetry(RetryPolicy{MaxAttempts: 1}))
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Health(ctx)
		cancel()
		if err == nil {
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("srvd never became healthy: %v\n%s", err, logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestKillRestartRecovery is the acceptance drill for the durable journal: a
// daemon SIGKILLed with work queued must, on restart, restore its completed
// results into the cache byte-identically and finish its interrupted jobs —
// while a resilient client behind a chaotic transport rides out the whole
// episode. The final SIGTERM checks the graceful path: exit 0 within the
// drain budget.
func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := buildSrvd(t)
	addr := freePort(t)
	journal := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	fast := testLoopReq()
	slow := make([]harness.Request, 3)
	for i := range slow {
		slow[i] = testLoopReq()
		slow[i].Seed = int64(300 + i)
		slow[i].Loop.Shape.Trip = 1 << 15
	}

	// Phase 1: complete one job, queue three behind the single worker, and
	// SIGKILL mid-queue — the crash the journal exists for.
	daemon := startSrvd(t, bin, addr, journal)
	c := NewClient("http://" + addr)
	first, err := c.Do(ctx, fast)
	if err != nil {
		t.Fatalf("phase 1 job: %v", err)
	}
	firstBytes, _ := json.Marshal(first)
	for i, req := range slow {
		if _, err := c.Submit(ctx, req); err != nil {
			t.Fatalf("queueing slow job %d: %v", i, err)
		}
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	// Phase 2: restart on the same port and journal. The client rides a
	// deterministic chaos transport the whole way — every fault below must
	// be masked by retry.
	daemon2 := startSrvd(t, bin, addr, journal)
	chaos := &ChaosTransport{Seed: 11, P: 0.3, Delay: time.Millisecond, Hang: 50 * time.Millisecond}
	cc := NewClient("http://"+addr,
		WithTransport(chaos),
		WithRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}),
		WithBreaker(0, 0))

	// The completed job survived the SIGKILL: cache hit, byte-identical.
	st, err := cc.Submit(ctx, fast)
	if err != nil {
		t.Fatalf("resubmitting completed job: %v", err)
	}
	if !st.Cached {
		t.Fatalf("completed job did not survive the crash: %+v", st)
	}
	var recovered harness.Result
	if err := json.Unmarshal(st.Result, &recovered); err != nil {
		t.Fatal(err)
	}
	recoveredBytes, _ := json.Marshal(recovered)
	if !bytes.Equal(firstBytes, recoveredBytes) {
		t.Fatalf("recovered result differs:\n  %s\n  %s", firstBytes, recoveredBytes)
	}
	if n := metricValue(t, cc, "serve.journal.replayed_done"); n < 1 {
		t.Fatalf("replayed_done = %d, want >= 1", n)
	}
	if n := metricValue(t, cc, "serve.journal.replayed_requeued"); n < 1 {
		t.Fatalf("replayed_requeued = %d, want >= 1", n)
	}

	// The interrupted jobs finish without resubmission and match local runs.
	for i, req := range slow {
		want, err := harness.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, _ := json.Marshal(want)
		res, err := cc.Do(ctx, req) // cache hit once the recovered job lands
		if err != nil {
			t.Fatalf("slow job %d after restart: %v", i, err)
		}
		gotBytes, _ := json.Marshal(res)
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("slow job %d diverged across the crash:\n  %s\n  %s", i, wantBytes, gotBytes)
		}
	}
	if chaos.Injected() == 0 {
		t.Error("chaos transport injected nothing — raise P or the call count")
	}

	// Journal invariant: every done record for a key carries identical
	// result bytes — recovery can never change an answer.
	assertJournalConsistent(t, journal)

	// Phase 3: SIGTERM must drain gracefully and exit 0.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon2.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("SIGTERM drain exited non-zero: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("daemon did not exit within the drain budget")
	}
	if code := daemon2.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("drain exit code = %d, want 0", code)
	}
}

// assertJournalConsistent re-reads the raw journal and checks that no key
// ever resolved to two different done results.
func assertJournalConsistent(t *testing.T, dir string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results := map[string]json.RawMessage{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %d unparsable: %v", lines, err)
		}
		if rec.Op != opDone {
			continue
		}
		if prev, ok := results[rec.Key]; ok && !bytes.Equal(prev, rec.Result) {
			t.Fatalf("key %s has two different done results", rec.Key)
		}
		results[rec.Key] = rec.Result
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("journal holds no done records")
	}
	t.Logf("journal: %d lines, %d completed keys", lines, len(results))
}

// TestSIGKILLMidSimResume is the acceptance drill for checkpoint/resume: a
// daemon SIGKILLed in the middle of one long simulation (periodic machine
// checkpoints already journaled, no terminal record) must, on restart, resume
// the job from its last checkpoint rather than cycle 0 and finish it with a
// result byte-identical to an uninterrupted run.
func TestSIGKILLMidSimResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := buildSrvd(t)
	addr := freePort(t)
	journal := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	// A gather-bound SRV variant: 11M cycles, 22 checkpoint intervals at
	// phase 1's -checkpoint-every, with 6 MB checkpoints. The poll below
	// has seconds to see the first checkpoint before the job finishes, even
	// while other test binaries keep every CPU busy.
	req := bigLoopReq(80_000, 7)
	req.Loop.Shape.GatherStmt, req.Loop.Shape.Gathers = true, 4

	// The reference is the same job run uninterrupted on a daemon of its
	// own. The daemon is built without the race detector, so this takes
	// seconds where an in-process run under -race would take minutes.
	refAddr := freePort(t)
	ref := startSrvd(t, bin, refAddr, t.TempDir(), "-checkpoint-every", "0")
	t0 := time.Now()
	want, err := NewClient("http://"+refAddr).Do(ctx, req)
	if err != nil {
		t.Fatalf("uninterrupted job: %v", err)
	}
	t.Logf("uninterrupted job: %v, scalar %d and SRV %d cycles", time.Since(t0), want.Loop.ScalarCycles, want.Loop.SRVCycles)
	wantBytes, _ := json.Marshal(want)
	_ = ref.Process.Kill()
	_ = ref.Wait()

	// Phase 1: a checkpoint interval a small fraction of the job's length, so
	// the kill lands after at least one checkpoint but well before the
	// simulation finishes.
	daemon := startSrvd(t, bin, addr, journal, "-checkpoint-every", "500000")
	c := NewClient("http://" + addr)
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Wait for a second fully-written journal record: the submit, then a
	// checkpoint. The daemon counts a record once it is written and
	// fsynced, so a checkpoint line still mid-write (a torn tail that
	// replay drops) does not count. Asking the daemon keeps each poll
	// cheap however large the journal grows.
	deadline := time.Now().Add(time.Minute)
	for metricValue(t, c, "serve.journal.records") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled before the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()
	data, err := os.ReadFile(filepath.Join(journal, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	complete := data[:bytes.LastIndexByte(data, '\n')+1]
	if bytes.Contains(complete, []byte(`"op":"done"`)) {
		t.Fatal("job finished before it could be killed; enlarge the workload")
	}
	if !bytes.Contains(complete, []byte(`"op":"ckpt"`)) {
		t.Fatal("no complete checkpoint record in the journal at the kill")
	}

	// Phase 2: restart over the same journal. The job must be re-enqueued
	// with its checkpoints and complete without resubmission.
	startSrvd(t, bin, addr, journal, "-checkpoint-every", "2000000")
	cc := NewClient("http://" + addr)
	if n := metricValue(t, cc, "serve.journal.replayed_resumed"); n != 1 {
		t.Fatalf("replayed_resumed = %d, want 1", n)
	}
	res, err := cc.Do(ctx, req) // coalesces with the resumed in-flight job
	if err != nil {
		t.Fatalf("job after restart: %v", err)
	}
	gotBytes, _ := json.Marshal(res)
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("resumed job diverged from an uninterrupted run:\n  %s\n  %s", wantBytes, gotBytes)
	}
}
