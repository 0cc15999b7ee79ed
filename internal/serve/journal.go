package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"srvsim/internal/harness"
)

// The durable job journal is an append-only NDJSON write-ahead log recording
// every job's lifecycle transitions, keyed by the content-addressed
// harness.Request.CacheKey. Each record is one json line written (and fsynced)
// in a single Write call, so a crash — including SIGKILL — can tear at most
// the final line, which replay detects and discards. On startup the journal
// is replayed: completed jobs repopulate the result cache with the exact
// bytes the original submission got (recovery is byte-identical, because the
// simulator is deterministic and the journal stores the marshalled Result
// verbatim), and queued or interrupted jobs re-enqueue idempotently. Because
// the key is a content address, and also the job's ID, replay is a pure state
// machine over keys. (Older journals repeat the key in an "id" field; replay
// ignores it.) A job's terminal record is fsynced before anyone can see the
// job terminal (Server.end).

// journalFile is the single NDJSON log inside Config.JournalDir.
const journalFile = "journal.ndjson"

// journalOp is one lifecycle transition.
type journalOp string

const (
	opSubmit journalOp = "submit" // admitted to the queue (Req recorded)
	opStart  journalOp = "start"  // picked up by a worker; only older builds wrote it
	opDone   journalOp = "done"   // finished successfully (Result recorded)
	opFail   journalOp = "fail"   // finished with a failure
	// opCkpt records one periodic machine checkpoint (Checkpoint recorded).
	// Replay keeps only the latest per simulation, so an interrupted job
	// resumes from where it was instead of cycle 0.
	opPreempt journalOp = "preempt" // cancelled by drain/shutdown: stays pending, resumable
	opCkpt    journalOp = "ckpt"
)

// journalRecord is one NDJSON line of the write-ahead log.
type journalRecord struct {
	Op  journalOp `json:"op"`
	Key string    `json:"key"`
	At  time.Time `json:"at"`
	// Req is recorded on submit so an interrupted job can be re-enqueued
	// after a crash without the client resubmitting.
	Req *harness.Request `json:"req,omitempty"`
	// Result holds the marshalled harness.Result verbatim on done — exactly
	// the bytes the result cache replays, so recovery is byte-identical.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Checkpoint holds one machine checkpoint on ckpt records. Replay retains
	// the latest per (bench, loop, variant, seed) for each pending key, and
	// recovery hands them to harness.WithResume.
	Checkpoint *harness.RunCheckpoint `json:"checkpoint,omitempty"`
	// Tenant is recorded on submit so a crash-recovered job re-enqueues on
	// the right fair-queue subqueue. Additive: absent for the default tenant,
	// so seed-era journals replay unchanged.
	Tenant string `json:"tenant,omitempty"`
}

// journal owns the append handle. Appends are serialised by mu, which also
// guarantees per-key record order matches the order appends were requested.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	met *metrics // counters for appended records and append errors (may be nil)
}

// openJournal opens (creating if needed) the journal for appending.
func openJournal(dir string) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes one record as a single line+fsync. Journal trouble must not
// fail the job it records, so errors are counted, not returned.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err == nil {
		data = append(data, '\n')
		jl.mu.Lock()
		if jl.f == nil {
			jl.mu.Unlock()
			return
		}
		_, werr := jl.f.Write(data)
		serr := jl.f.Sync()
		jl.mu.Unlock()
		if werr == nil && serr == nil {
			if jl.met != nil {
				jl.met.journalRecords.Add(1)
			}
			return
		}
	}
	if jl.met != nil {
		jl.met.journalErrors.Add(1)
	}
}

// Close syncs and closes the journal; further appends are dropped silently.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}

// replayed key states.
const (
	replayPending = iota // submit (± start) without a terminal record
	replayDone
	replayFailed
)

type replayEntry struct {
	key    string
	state  int
	req    *harness.Request
	tenant string
	result json.RawMessage
	// ckpts is the latest journaled checkpoint per simulation of a pending
	// key (a benchmark job runs many loops × two variants concurrently), in
	// first-seen order so compaction is deterministic.
	ckpts []harness.RunCheckpoint
}

// absorbCkpt folds one ckpt record into the entry, replacing any earlier
// checkpoint for the same simulation. Checkpoints that fail validation or
// were produced by different simulator code are dropped: resuming them would
// either fail the job or silently mix two machines — re-running from cycle 0
// is always correct (and, for a stale CodeVersion, the only honest option).
func (e *replayEntry) absorbCkpt(cp *harness.RunCheckpoint) {
	if cp == nil || cp.Validate() != nil || cp.CodeVersion != harness.CodeVersion {
		return
	}
	for i := range e.ckpts {
		old := &e.ckpts[i]
		if old.Bench == cp.Bench && old.Loop == cp.Loop && old.Variant == cp.Variant && old.Seed == cp.Seed {
			*old = *cp
			return
		}
	}
	e.ckpts = append(e.ckpts, *cp)
}

// replayedState is the journal reduced to live state: completed jobs (to
// repopulate the cache) and pending ones (to re-enqueue), in first-submission
// order so recovery is deterministic.
type replayedState struct {
	completed []replayEntry
	pending   []replayEntry
	failed    int  // terminally failed keys (informational; failures re-execute on demand)
	truncated bool // a torn final line was discarded
}

// replayJournal reads the journal and reduces it to live state. A missing
// journal is an empty state, not an error. Replay is a per-key state machine
// applied in record order: submit marks pending (a resubmission after a
// failure re-arms the key), done is absorbing and captures the result bytes,
// fail marks failed. The first malformed line — only ever a torn tail, since
// records are single-write — ends the replay.
func replayJournal(dir string) (replayedState, error) {
	var st replayedState
	f, err := os.Open(filepath.Join(dir, journalFile))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	defer f.Close()

	entries := map[string]*replayEntry{}
	var order []string
	r := bufio.NewReader(f)
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == nil || (rerr == io.EOF && len(line) > 0) {
			var rec journalRecord
			if rerr == io.EOF || json.Unmarshal(line, &rec) != nil {
				// No trailing newline, or undecodable: a torn final write.
				st.truncated = true
				break
			}
			e := entries[rec.Key]
			if e == nil {
				e = &replayEntry{key: rec.Key}
				entries[rec.Key] = e
				order = append(order, rec.Key)
			}
			switch rec.Op {
			case opSubmit:
				if e.state != replayDone {
					e.state = replayPending
					if rec.Req != nil {
						e.req = rec.Req
					}
					e.tenant = rec.Tenant
				}
			case opStart:
				// Older journals mark worker pickup; pending either way.
			case opDone:
				e.state = replayDone
				e.result = rec.Result
				e.ckpts = nil // absorbed: nothing left to resume
			case opFail:
				if e.state != replayDone {
					e.state = replayFailed
					// A genuine failure invalidates the run's checkpoints: a
					// resubmission must re-execute from scratch, not continue
					// a run that already went wrong.
					e.ckpts = nil
				}
			case opPreempt:
				// Drain or shutdown cancelled the job mid-run: it stays
				// pending and keeps its checkpoints, so the next process
				// resumes it instead of restarting at cycle 0.
			case opCkpt:
				if e.state != replayDone {
					e.absorbCkpt(rec.Checkpoint)
				}
			}
			continue
		}
		if rerr == io.EOF {
			break
		}
		return st, rerr
	}
	for _, k := range order {
		e := entries[k]
		switch {
		case e.state == replayDone && len(e.result) > 0:
			st.completed = append(st.completed, *e)
		case e.state == replayPending && e.req != nil:
			st.pending = append(st.pending, *e)
		case e.state == replayFailed:
			st.failed++
		}
	}
	return st, nil
}

// compactJournal atomically rewrites the journal to just the replayed live
// state — one done record per completed key, one submit (plus the latest
// checkpoint per simulation) per pending key — so the log stays bounded by
// live state across restarts instead of growing with history.
func compactJournal(dir string, st replayedState, now time.Time) error {
	path := filepath.Join(dir, journalFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range st.completed {
		if err := enc.Encode(journalRecord{Op: opDone, Key: e.key, At: now, Result: e.result}); err != nil {
			f.Close()
			return err
		}
	}
	for _, e := range st.pending {
		if err := enc.Encode(journalRecord{Op: opSubmit, Key: e.key, At: now, Req: e.req, Tenant: e.tenant}); err != nil {
			f.Close()
			return err
		}
		for i := range e.ckpts {
			if err := enc.Encode(journalRecord{Op: opCkpt, Key: e.key, At: now, Checkpoint: &e.ckpts[i]}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("replacing journal: %w", err)
	}
	// The rename is an entry of the directory: until the directory is
	// synced, a crash can bring the old file back and lose every record
	// appended (and fsynced) to the new one since.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("syncing journal directory: %w", err)
	}
	return d.Close()
}
