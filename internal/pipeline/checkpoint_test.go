package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
)

// Checkpoint/restore equivalence suite. Every scenario of the cross-core
// matrix (equiv_test.go) runs three ways: uninterrupted, with periodic
// checkpointing enabled, and restored-from-checkpoint at several capture
// points. Checkpointing must not change the run at all (digest including
// sampler rows and trace bytes); every restored run must reproduce the
// machine digest (Stats, DumpStats, architectural state) and memory image,
// and its sampler — which records only from the restore on — the
// uninterrupted run's rows past the restore cycle (see sampleRowsAfter for
// the first row's interval IPC). Checkpoints cross the
// JSON boundary before every restore, and restores alternate between the
// event-driven and reference tick cores, so the suite also proves
// serialisation fidelity and that emission cycles are core-independent.

// collectCheckpoints runs p with periodic checkpointing enabled and returns
// the digest plus the captured checkpoints (capped; long runs keep the first
// checkpointCollectCap emissions).
const checkpointCollectCap = 64

func collectCheckpoints(p *Pipeline, every int64) (string, []*Checkpoint) {
	p.Cfg.CheckpointEvery = every
	var cps []*Checkpoint
	p.SetCheckpointSink(func(cp *Checkpoint) {
		if len(cps) < checkpointCollectCap {
			cps = append(cps, cp)
		}
	})
	return equivDigest(p), cps
}

// jsonRoundTrip pushes a checkpoint through its serialised form.
func jsonRoundTrip(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	out := new(Checkpoint)
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	return out
}

// sampleRowsAfter renders the sampler rows recorded past cycle. A restored
// sampler's first interval counts commits from the restored Stats.Committed
// on, not from the previous row: what the capture cycle itself committed is
// not machine state. So with base >= 0 the first row's interval IPC is
// recomputed from base, as the restored sampler computes it; every other
// value must match the uninterrupted run exactly.
func sampleRowsAfter(s *obsv.Sampler, cycle, base int64) []string {
	var rows []string
	for i := 0; i < s.Len(); i++ {
		c, vals := s.Row(i)
		if c <= cycle {
			continue
		}
		if len(rows) == 0 && base >= 0 {
			vals = append([]float64{(vals[1] - float64(base)) / float64(s.Every)}, vals[1:]...)
		}
		rows = append(rows, fmt.Sprint(c, vals))
	}
	return rows
}

func first(rows []string) string {
	if len(rows) == 0 {
		return ""
	}
	return rows[0]
}

func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			pRef, imRef := sc.build()
			errRef := pRef.Run()
			dRef, mRef := runDigest(pRef, errRef), machineDigest(pRef, errRef)

			pCkpt, imCkpt := sc.build()
			dCkpt, cps := collectCheckpoints(pCkpt, 2000)
			if dCkpt != dRef {
				t.Fatalf("enabling checkpointing changed the run:\n--- off ---\n%s\n--- on ---\n%s", dRef, dCkpt)
			}
			if addr, diff := imRef.FirstDiff(imCkpt); diff {
				t.Fatalf("checkpointing run diverged in memory at %#x", addr)
			}
			if len(cps) == 0 {
				t.Skipf("run too short for a checkpoint emission")
			}

			// Restore at up to three capture points: first, middle, last.
			// Alternate the restored core so event-captured state continues
			// on the tick core and vice versa.
			points := []int{0, len(cps) / 2, len(cps) - 1}
			seen := map[int]bool{}
			for i, pi := range points {
				if seen[pi] {
					continue
				}
				seen[pi] = true
				cp := jsonRoundTrip(t, cps[pi])
				p2, im2 := sc.build()
				if i%2 == 1 {
					p2.UseReferenceTickCore()
				}
				if err := p2.Restore(cp); err != nil {
					t.Fatalf("restore at cycle %d: %v", cp.Cycle, err)
				}
				if p2.cycle != cp.Cycle {
					t.Fatalf("restored cycle %d, want %d", p2.cycle, cp.Cycle)
				}
				d2 := machineDigest(p2, p2.Run())
				if d2 != mRef {
					t.Errorf("restore at cycle %d diverged:\n--- uninterrupted ---\n%s\n--- restored ---\n%s",
						cp.Cycle, mRef, d2)
				}
				if pRef.sampler != nil {
					want, got := sampleRowsAfter(pRef.sampler, cp.Cycle, cp.Stats.Committed), sampleRowsAfter(p2.sampler, cp.Cycle, -1)
					if !slices.Equal(got, want) {
						t.Errorf("restore at cycle %d: %d sampler rows past the restore, want %d (first %q, want %q)",
							cp.Cycle, len(got), len(want), first(got), first(want))
					}
				}
				if addr, diff := imRef.FirstDiff(im2); diff {
					t.Errorf("restore at cycle %d diverged in memory at %#x", cp.Cycle, addr)
				}
			}
		})
	}
}

// TestCheckpointJSONStable: capture → JSON → restore → re-capture must
// serialise to the same bytes, i.e. restore loses nothing the next
// checkpoint would need.
func TestCheckpointJSONStable(t *testing.T) {
	p, _ := equivScenarios()[0].build()
	_, cps := collectCheckpoints(p, 2000)
	if len(cps) == 0 {
		t.Skip("run too short for a checkpoint emission")
	}
	cp := cps[len(cps)/2]
	raw1, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := equivScenarios()[0].build()
	if err := p2.Restore(jsonRoundTrip(t, cp)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	cp2 := p2.checkpoint(cp.LastProgress)
	raw2, err := json.Marshal(cp2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("re-captured checkpoint differs from original:\n%s\nvs\n%s", raw1, raw2)
	}
}

// TestDeadlockCheckpointSingleStep: a watchdog trip carries a checkpoint of
// the wedged machine; restoring it and re-running single-steps straight back
// into the wedge (one cycle later) instead of replaying from cycle 0.
func TestDeadlockCheckpointSingleStep(t *testing.T) {
	build := func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.WatchdogCycles = 500
		p := New(cfg, c.Prog, im)
		p.InjectWedge(2000)
		return p, im
	}
	p, _ := build()
	err := p.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if de.Checkpoint == nil {
		t.Fatal("DeadlockError carries no checkpoint")
	}
	if de.Checkpoint.Cycle != de.Cycle {
		t.Fatalf("checkpoint cycle %d, deadlock cycle %d", de.Checkpoint.Cycle, de.Cycle)
	}

	p2, _ := build()
	if err := p2.Restore(jsonRoundTrip(t, de.Checkpoint)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := p2.Snapshot(); got != de.Snapshot {
		t.Errorf("restored snapshot differs:\n--- original ---\n%s--- restored ---\n%s", de.Snapshot, got)
	}
	// The restored watchdog window is already expired, so each Run advances
	// exactly one cycle before re-detecting the wedge; restoring the fresh
	// error's checkpoint repeats the step — the -repro single-step loop.
	cur := de
	for step := int64(1); step <= 3; step++ {
		err := p2.Run()
		var de2 *DeadlockError
		if !errors.As(err, &de2) {
			t.Fatalf("step %d: want DeadlockError, got %v", step, err)
		}
		if de2.Cycle != cur.Cycle+1 {
			t.Fatalf("step %d: detected at cycle %d, want %d", step, de2.Cycle, cur.Cycle+1)
		}
		cur = de2
		if err := p2.Restore(jsonRoundTrip(t, cur.Checkpoint)); err != nil {
			t.Fatalf("step %d restore: %v", step, err)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	p, _ := equivScenarios()[0].build()
	cp := p.Checkpoint()

	bad := *cp
	bad.SchemaVersion = CheckpointSchemaVersion + 1
	if err := p.Restore(&bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}

	bad = *cp
	bad.ProgLen = cp.ProgLen + 1
	if err := p.Restore(&bad); err == nil || !strings.Contains(err.Error(), "program") {
		t.Errorf("program-length mismatch not rejected: %v", err)
	}

	// A journal is untrusted: a fetch queue deeper than the ring, or a slot
	// pc outside the program, must be refused rather than restored.
	bad = *cp
	bad.FetchQ = make([]FetchSlot, len(p.fetchq.buf)+1)
	if err := p.Restore(&bad); err == nil || !strings.Contains(err.Error(), "fetch queue holds") {
		t.Errorf("overfull fetch queue not rejected: %v", err)
	}
	bad = *cp
	bad.FetchQ = []FetchSlot{{PC: 0}, {PC: cp.ProgLen}}
	if err := p.Restore(&bad); err == nil || !strings.Contains(err.Error(), "fetch queue slot 1 pc") {
		t.Errorf("out-of-range fetch queue pc not rejected: %v", err)
	}
}

// TestSnapshotElision: the forensics dump must say how many ROB entries it
// cut, not silently truncate.
func TestSnapshotElision(t *testing.T) {
	prog := isa.NewBuilder().MovI(0, 0).Halt().MustBuild()
	p := New(testConfig(), prog, mem.NewImage())
	n := snapshotROBEntries + 3
	for i := 0; i < n; i++ {
		e := p.allocEntry()
		e.seq = int64(i + 1)
		e.pc = 0
		e.inst = prog.At(0)
		e.state = sDispatched
		p.pushROB(e)
	}
	snap := p.Snapshot()
	want := fmt.Sprintf("(+%d more entries elided)", n-snapshotROBEntries)
	if !strings.Contains(snap, want) {
		t.Errorf("snapshot of %d-entry ROB lacks %q:\n%s", n, want, snap)
	}

	// At exactly the display budget nothing is elided and no marker appears.
	p2 := New(testConfig(), prog, mem.NewImage())
	for i := 0; i < snapshotROBEntries; i++ {
		e := p2.allocEntry()
		e.seq = int64(i + 1)
		e.pc = 0
		e.inst = prog.At(0)
		e.state = sDispatched
		p2.pushROB(e)
	}
	if snap := p2.Snapshot(); strings.Contains(snap, "elided") {
		t.Errorf("snapshot at exactly %d entries claims elision:\n%s", snapshotROBEntries, snap)
	}
}

// BenchmarkStepCheckpointOff guards the default-path contract: with no sink
// installed and CheckpointEvery zero, the per-cycle step stays allocation-
// free — checkpointing support costs one predictable branch at the poll
// boundary and nothing else.
func BenchmarkStepCheckpointOff(b *testing.B) {
	prog := isa.NewBuilder().MovI(0, 0).Halt().MustBuild()
	p := New(testConfig(), prog, mem.NewImage())
	p.cycle = 1000
	p.fetchStalled = true
	e := p.allocEntry()
	e.seq = 1
	e.pc = 0
	e.inst = prog.At(0)
	e.state = sIssued
	e.granted = true
	e.doneAt = 1 << 60 // never completes: every step is pure bookkeeping
	p.pushROB(e)
	p.inflight = append(p.inflight, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
	benchSink = p.cycle
}
