package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// ckptLoopReq is a loop request long enough (tens of thousands of cycles) to
// cross several cancellation-poll boundaries, so periodic checkpoints
// actually fire.
func ckptLoopReq(trip int, seed int64) Request {
	return Request{
		Mode: ModeLoop, Bench: "ckpt", Seed: seed,
		Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: "ckpt", Trip: trip, Contig: 1, Chain: 1,
			Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
		}},
	}
}

// collectRun executes req on env with periodic checkpointing armed and
// returns the marshalled Result plus every emission (the sink is called
// concurrently from the scalar and SRV variant goroutines).
func collectRun(t *testing.T, env *Env, req Request, every int64) ([]byte, []RunCheckpoint) {
	t.Helper()
	var mu sync.Mutex
	var cps []RunCheckpoint
	ctx := WithCheckpoints(context.Background(), every, func(rc RunCheckpoint) {
		mu.Lock()
		cps = append(cps, rc)
		mu.Unlock()
	})
	res, err := env.Run(ctx, req)
	if err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data, cps
}

// byVariant splits emissions per variant, preserving emission order (which is
// cycle order within a variant).
func byVariant(cps []RunCheckpoint) map[string][]RunCheckpoint {
	m := map[string][]RunCheckpoint{}
	for _, cp := range cps {
		m[cp.Variant] = append(m[cp.Variant], cp)
	}
	return m
}

// TestResumeByteIdentical is the harness half of the tentpole proof: a run
// that emits periodic checkpoints is bit-identical to an un-checkpointed
// run, and resuming from any emission — early, middle, last, or only one
// variant, always through a JSON round-trip as the serve journal would —
// reproduces the exact same marshalled Result.
func TestResumeByteIdentical(t *testing.T) {
	req := ckptLoopReq(8192, 7)
	plain, err := testEnv().Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := json.Marshal(plain)
	if werr != nil {
		t.Fatal(werr)
	}
	got, cps := collectRun(t, testEnv(), req, 1000)
	if !bytes.Equal(want, got) {
		t.Fatalf("checkpointing perturbed the result:\n  %s\n  %s", want, got)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	for _, cp := range cps {
		if cp.Bench != "ckpt" || cp.Loop != "ckpt" || cp.Seed != 7 || cp.Cycle <= 0 {
			t.Fatalf("bad emission attribution: %+v", cp)
		}
		if cp.CodeVersion != CodeVersion || cp.SchemaVersion != SchemaVersion {
			t.Fatalf("emission carries wrong provenance: %+v", cp)
		}
		if err := cp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	vs := byVariant(cps)
	for _, v := range []string{"scalar", "srv"} {
		if len(vs[v]) == 0 {
			t.Fatalf("variant %s emitted no checkpoints", v)
		}
	}

	pick := func(sel func([]RunCheckpoint) RunCheckpoint) []RunCheckpoint {
		var out []RunCheckpoint
		for _, v := range []string{"scalar", "srv"} {
			out = append(out, sel(vs[v]))
		}
		return out
	}
	cases := map[string][]RunCheckpoint{
		"first":       pick(func(l []RunCheckpoint) RunCheckpoint { return l[0] }),
		"middle":      pick(func(l []RunCheckpoint) RunCheckpoint { return l[len(l)/2] }),
		"last":        pick(func(l []RunCheckpoint) RunCheckpoint { return l[len(l)-1] }),
		"scalar-only": vs["scalar"][len(vs["scalar"])/2 : len(vs["scalar"])/2+1],
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			wire, err := json.Marshal(set)
			if err != nil {
				t.Fatal(err)
			}
			var back []RunCheckpoint
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			res, err := testEnv().Run(WithResume(context.Background(), back), req)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, data) {
				t.Fatalf("resumed result diverged:\n  want %s\n  got  %s", want, data)
			}
		})
	}
}

// TestBenchmarkModeResume runs a whole benchmark (many loops × two variants,
// concurrently) with checkpointing on, then resumes the entire fan-out from
// the full emission set. Each simulation must pick exactly its own
// checkpoint — this is the multi-loop attribution-keying case a plain
// per-variant map would get wrong.
func TestBenchmarkModeResume(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	req := Request{Mode: ModeBenchmark, Bench: b.Name, Seed: 7}
	want, cps := collectRun(t, testEnv(), req, 1000)
	if len(cps) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	loops := map[string]bool{}
	for _, cp := range cps {
		loops[cp.Loop] = true
	}
	if len(loops) < 2 {
		t.Fatalf("emissions cover %d loops, need >= 2 to exercise attribution keying", len(loops))
	}
	// Keep only the latest emission per simulation, as journal replay would.
	latest := map[resumeID]RunCheckpoint{}
	var order []resumeID
	for _, cp := range cps {
		id := resumeID{cp.Bench, cp.Loop, cp.Variant, cp.Seed}
		if _, ok := latest[id]; !ok {
			order = append(order, id)
		}
		latest[id] = cp
	}
	var set []RunCheckpoint
	for _, id := range order {
		set = append(set, latest[id])
	}
	res, err := testEnv().Run(WithResume(context.Background(), set), req)
	if err != nil {
		t.Fatalf("resumed benchmark run failed: %v", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed benchmark result diverged from the original")
	}
}

// TestResumeIgnoresForeignCheckpoint: checkpoints that do not match a
// simulation's exact (bench, loop, variant, seed) are ignored — the
// simulation runs from scratch — rather than failing the run or, worse,
// silently restoring the wrong machine.
func TestResumeIgnoresForeignCheckpoint(t *testing.T) {
	_, cps := collectRun(t, testEnv(), ckptLoopReq(8192, 7), 1000)
	other := ckptLoopReq(8192, 11) // same shape, different seed: never a match
	plain, err := testEnv().Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	res, err := testEnv().Run(WithResume(context.Background(), cps), other)
	if err != nil {
		t.Fatalf("run with foreign checkpoints failed: %v", err)
	}
	got, _ := json.Marshal(res)
	if !bytes.Equal(want, got) {
		t.Fatal("foreign checkpoints perturbed an unrelated run")
	}
}

// TestResumeRejectsForeignBuild: a checkpoint from a different CodeVersion
// must fail the run loudly — continuing it would mix two machines.
func TestResumeRejectsForeignBuild(t *testing.T) {
	req := ckptLoopReq(8192, 7)
	_, cps := collectRun(t, testEnv(), req, 1000)
	cp := cps[0]
	cp.CodeVersion = "srvsim-0.0.0"
	_, err := testEnv().Run(WithResume(context.Background(), []RunCheckpoint{cp}), req)
	if err == nil {
		t.Fatal("foreign-build checkpoint restored without error")
	}
	se := AsSimError(err)
	if se.Kind != KindRunError || !strings.Contains(se.Msg, "srvsim-0.0.0") {
		t.Fatalf("bad classification: %+v", se)
	}
}

// TestCheckpointsUnderChaos: chaos replaces whole simulations, never
// perturbs real ones — so with chaos armed but this simulation drawing
// "none", emissions and the resumed result stay bit-identical to the
// chaos-off run; and with every simulation faulted, checkpointing does not
// interfere with containment.
func TestCheckpointsUnderChaos(t *testing.T) {
	req := ckptLoopReq(8192, 7)
	want, cps := collectRun(t, testEnv(), req, 1000)

	env := &Env{Parallelism: DefaultParallelism(), ChaosProb: 0.5}
	for s := int64(1); s <= 200; s++ {
		env.ChaosSeed = s
		if env.chaosFaultFor("ckpt", "ckpt", "scalar") == chaosNone &&
			env.chaosFaultFor("ckpt", "ckpt", "srv") == chaosNone {
			break
		}
		if s == 200 {
			t.Fatal("no chaos seed leaves ckpt/ckpt unfaulted at p=0.5")
		}
	}
	got, chaosCps := collectRun(t, env, req, 1000)
	if !bytes.Equal(want, got) {
		t.Fatal("armed-but-unfaulted chaos perturbed a checkpointed run")
	}
	if len(chaosCps) != len(cps) {
		t.Fatalf("chaos changed emission count: %d vs %d", len(chaosCps), len(cps))
	}
	vs := byVariant(chaosCps)
	resume := []RunCheckpoint{vs["scalar"][len(vs["scalar"])/2], vs["srv"][len(vs["srv"])/2]}
	res, err := env.Run(WithResume(context.Background(), resume), req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(res)
	if !bytes.Equal(want, data) {
		t.Fatal("resume under armed chaos diverged")
	}

	// p=1: every simulation is chaos-replaced; the failure must be contained
	// exactly as without checkpointing, not corrupted by the armed sink.
	all := &Env{Parallelism: DefaultParallelism(), ChaosProb: 1, ChaosSeed: 1}
	ctx := WithCheckpoints(context.Background(), 1000, func(RunCheckpoint) {})
	if _, err := all.Run(ctx, req); err == nil {
		t.Fatal("fully-chaotic checkpointed run returned nil error")
	}
}

// TestReplayArtifactStepsWedgeCheckpoint: a deadlock artifact carrying the
// wedge's machine checkpoint must restore it and single-step the wedge,
// printing the machine after each re-detected cycle.
func TestReplayArtifactStepsWedgeCheckpoint(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	ls := b.Loops[0]
	l, im := ls.Instantiate(7)
	c, err := compiler.Compile(l, im, compiler.ModeSRV)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg()
	pcfg.WatchdogCycles = 500
	p := pipeline.New(pcfg, c.Prog, im)
	p.InjectWedge(200)
	rerr := p.Run()
	var de *pipeline.DeadlockError
	if !errors.As(rerr, &de) || de.Checkpoint == nil {
		t.Fatalf("wedged run returned %v, want DeadlockError with checkpoint", rerr)
	}
	cpBytes, err := json.Marshal(de.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	art := CrashArtifact{
		Tool: "harness", Bench: b.Name, Loop: ls.Shape.Name, Variant: "srv",
		Seed: 7, Shape: &ls.Shape, Weight: ls.Weight, PredTail: ls.PredTail,
		Config: &pcfg,
		Failure: ArtifactFailure{
			Kind: KindDeadlock.String(), Message: "synthetic wedge",
			Checkpoint: cpBytes,
		},
	}
	path, err := writeArtifact(t.TempDir(), "wedge_step", art)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := testEnv().ReplayArtifact(context.Background(), path, &buf); err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "single-stepping from the wedge checkpoint") {
		t.Fatalf("no single-step section:\n%s", out)
	}
	if !strings.Contains(out, "still wedged at cycle") {
		t.Fatalf("single-step did not re-detect the wedge:\n%s", out)
	}
}

// TestArtifactValidation: -repro must report exactly what is wrong with a
// damaged or future artifact (and its schema version) instead of failing
// obscurely mid-replay.
func TestArtifactValidation(t *testing.T) {
	write := func(t *testing.T, art CrashArtifact) string {
		t.Helper()
		path, err := writeArtifact(t.TempDir(), "invalid", art)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	shape := &workloads.Shape{Name: "x", Trip: 8, Contig: 1, Chain: 1,
		Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true}

	cases := map[string]struct {
		art  CrashArtifact
		want string
	}{
		"missing shape": {
			CrashArtifact{Tool: "harness", Failure: ArtifactFailure{Kind: KindPanic.String()}},
			`missing required field "shape"`,
		},
		"missing kind": {
			CrashArtifact{Tool: "harness", Shape: shape, Failure: ArtifactFailure{}},
			`missing required field "failure.kind"`,
		},
		"unknown kind": {
			CrashArtifact{Tool: "harness", Shape: shape, Failure: ArtifactFailure{Kind: "nonsense"}},
			`unknown failure.kind "nonsense"`,
		},
		"unknown tool": {
			CrashArtifact{Tool: "mystery", Shape: shape, Failure: ArtifactFailure{Kind: KindPanic.String()}},
			`unknown tool "mystery"`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := write(t, tc.art)
			var buf bytes.Buffer
			err := testEnv().ReplayArtifact(context.Background(), path, &buf)
			if err == nil {
				t.Fatal("invalid artifact replayed without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the problem %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "schema v") {
				t.Fatalf("error %q does not cite the schema version", err)
			}
		})
	}

	// A future-schema artifact is refused outright, pointing at the build gap.
	future := CrashArtifact{SchemaVersion: SchemaVersion + 10, Tool: "harness",
		Shape: shape, Failure: ArtifactFailure{Kind: KindPanic.String()}}
	data, err := json.Marshal(future)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rerr := testEnv().ReplayArtifact(context.Background(), path, &buf)
	if rerr == nil || !strings.Contains(rerr.Error(), "newer build") {
		t.Fatalf("future artifact: %v", rerr)
	}
}
