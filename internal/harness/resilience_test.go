package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

func TestParMapContainsPanics(t *testing.T) {
	env := &Env{Parallelism: 4}
	done := make([]bool, 8)
	err := env.parMap(8, func(i int) error {
		if i == 3 {
			panic("boom")
		}
		done[i] = true
		return nil
	})
	if err == nil {
		t.Fatal("panic in worker not reported")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("panic surfaced as %T, want *SimError", err)
	}
	if se.Kind != KindPanic {
		t.Errorf("kind = %v, want Panic", se.Kind)
	}
	if se.Msg != "boom" {
		t.Errorf("msg = %q, want boom", se.Msg)
	}
	if se.Stack == "" {
		t.Error("contained panic carries no stack")
	}
	for i, d := range done {
		if i != 3 && !d {
			t.Errorf("sibling simulation %d did not complete after the panic", i)
		}
	}
}

// Every invariant class paranoid mode can raise must cross the recover
// boundary as an InvariantViolation SimError with full attribution. The
// table iterates the pipeline's own registry, so a new invariant cannot be
// added without being containment-checked.
func TestInvariantPanicsSurfaceTyped(t *testing.T) {
	env := &Env{Parallelism: 4}
	for _, check := range pipeline.InvariantChecks {
		check := check
		t.Run(check, func(t *testing.T) {
			err := env.parMap(3, func(i int) error {
				a := attribution{bench: "somebench", loop: "someloop", variant: "srv", seed: 7}
				return a.guard(func() error {
					if i == 1 {
						panic(pipeline.InvariantError{Check: check, Cycle: 42, Msg: "synthetic"})
					}
					return nil
				})
			})
			var se *SimError
			if !errors.As(err, &se) {
				t.Fatalf("invariant panic surfaced as %T (%v), want *SimError", err, err)
			}
			if se.Kind != KindInvariantViolation {
				t.Errorf("kind = %v, want InvariantViolation", se.Kind)
			}
			if se.Bench != "somebench" || se.Loop != "someloop" || se.Variant != "srv" || se.Seed != 7 {
				t.Errorf("attribution lost: %+v", se)
			}
			if se.Cycle != 42 {
				t.Errorf("cycle = %d, want 42", se.Cycle)
			}
			var ie pipeline.InvariantError
			if !errors.As(se, &ie) || ie.Check != check {
				t.Errorf("typed InvariantError not recoverable from SimError (check %q)", check)
			}
		})
	}
}

// chaosExpectedKind maps an injected fault to the kind its SimError must
// carry: panics are contained as Panic, the synthetic livelock must be
// caught by the watchdog as Deadlock, and the stuck-slow fault surfaces
// through cooperative cancellation as a RunError.
func chaosExpectedKind(fault int) FailKind {
	switch fault {
	case chaosPanicFault:
		return KindPanic
	case chaosLivelockFault:
		return KindDeadlock
	default:
		return KindRunError
	}
}

func TestChaosIsolationAndDeterminism(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	const seed = 7
	ctx := context.Background()

	baseline, err := testEnv().RunBenchmark(ctx, b, seed)
	if err != nil || len(baseline.Failures) != 0 {
		t.Fatalf("fault-free run failed: err=%v failures=%d", err, len(baseline.Failures))
	}

	// Pick a chaos seed that faults some but not all loops, so both the
	// containment and the isolation halves of the test have subjects.
	type fate struct{ scalar, srv int }
	fates := map[string]fate{}
	env := &Env{Parallelism: DefaultParallelism(), ChaosProb: 0.5, CrashDir: t.TempDir()}
	for s := int64(1); s <= 200; s++ {
		env.ChaosSeed = s
		faulted, clean := 0, 0
		fates = map[string]fate{}
		for _, ls := range b.Loops {
			f := fate{
				scalar: env.chaosFaultFor(b.Name, ls.Shape.Name, "scalar"),
				srv:    env.chaosFaultFor(b.Name, ls.Shape.Name, "srv"),
			}
			fates[ls.Shape.Name] = f
			if f.scalar != chaosNone || f.srv != chaosNone {
				faulted++
			} else {
				clean++
			}
		}
		if faulted > 0 && clean > 0 {
			break
		}
		if s == 200 {
			t.Fatal("no chaos seed yields a mixed fault/clean split at p=0.5")
		}
	}

	chaotic, err := env.RunBenchmark(ctx, b, seed)
	if err != nil {
		t.Fatalf("chaos run returned a fatal error instead of containing faults: %v", err)
	}

	// 1. Every predicted fault appears in Failures with the right kind and
	// attribution; nothing else does.
	want := map[string]FailKind{}
	wantVariant := map[string]string{}
	for _, ls := range b.Loops {
		f := fates[ls.Shape.Name]
		// runLoop reports the first failing variant in index order.
		if f.scalar != chaosNone {
			want[ls.Shape.Name] = chaosExpectedKind(f.scalar)
			wantVariant[ls.Shape.Name] = "scalar"
		} else if f.srv != chaosNone {
			want[ls.Shape.Name] = chaosExpectedKind(f.srv)
			wantVariant[ls.Shape.Name] = "srv"
		}
	}
	if len(chaotic.Failures) != len(want) {
		t.Fatalf("failures = %d, predicted %d", len(chaotic.Failures), len(want))
	}
	for _, se := range chaotic.Failures {
		kind, predicted := want[se.Loop]
		if !predicted {
			t.Errorf("unpredicted failure %v", se)
			continue
		}
		if se.Kind != kind {
			t.Errorf("%s: kind = %v, want %v", se.Loop, se.Kind, kind)
		}
		if se.Bench != b.Name || se.Variant != wantVariant[se.Loop] || se.Seed == 0 {
			t.Errorf("%s: bad attribution %+v", se.Loop, se)
		}
		if se.Kind == KindDeadlock && se.Snapshot == "" {
			t.Errorf("%s: deadlock without a snapshot", se.Loop)
		}
		// 2. Forensics: a crash artifact exists and replays cleanly (the
		// injected fault must NOT reproduce on the diagnostic re-run).
		if se.Artifact == "" {
			t.Errorf("%s: no crash artifact written", se.Loop)
			continue
		}
		if _, err := os.Stat(se.Artifact); err != nil {
			t.Errorf("%s: artifact missing: %v", se.Loop, err)
		}
		var buf bytes.Buffer
		if err := testEnv().ReplayArtifact(ctx, se.Artifact, &buf); err != nil {
			t.Errorf("%s: replay machinery failed: %v", se.Loop, err)
		} else if !strings.Contains(buf.String(), "did not reproduce") {
			t.Errorf("%s: injected fault reproduced on replay:\n%s", se.Loop, buf.String())
		}
	}

	// 3. Isolation: loops without an injected fault are bit-identical to the
	// fault-free run.
	chaoticByName := map[string]LoopResult{}
	for _, lr := range chaotic.Loops {
		chaoticByName[lr.Loop] = lr
	}
	for _, lr := range baseline.Loops {
		if _, faulted := want[lr.Loop]; faulted {
			continue
		}
		got, ok := chaoticByName[lr.Loop]
		if !ok {
			t.Errorf("%s: clean loop missing from the chaos run", lr.Loop)
			continue
		}
		if !reflect.DeepEqual(lr, got) {
			t.Errorf("%s: clean loop differs under chaos:\nbaseline: %+v\nchaos:    %+v", lr.Loop, lr, got)
		}
	}

	// 4. Report integrity: the failure summary names every contained fault.
	sum := FailureSummary(chaotic.Failures).Body
	for loop := range want {
		if !strings.Contains(sum, loop) {
			t.Errorf("failure summary omits %s:\n%s", loop, sum)
		}
	}

	// 5. -failfast restores abort-on-first-error.
	env.FailFast = true
	if _, err := env.RunBenchmark(ctx, b, seed); err == nil {
		t.Error("fail-fast chaos run returned nil error")
	}
}

func TestSimTimeoutCancelsRun(t *testing.T) {
	env := &Env{SimTimeout: time.Nanosecond}
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	_, err := env.RunLoop(context.Background(), b.Name, b.Loops[0], 7)
	if !errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("timed-out run returned %v, want ErrCancelled", err)
	}
	se := AsSimError(err)
	if se.Kind != KindRunError || se.Bench != b.Name {
		t.Errorf("bad classification: %+v", se)
	}
}

func TestRunFuzzTrialDeterministic(t *testing.T) {
	env, ctx := testEnv(), context.Background()
	r1, err1 := env.RunFuzzTrial(ctx, 3, 5, false, false)
	r2, err2 := env.RunFuzzTrial(ctx, 3, 5, false, false)
	if err1 != nil || err2 != nil {
		t.Fatalf("fuzz trial failed: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("trial (3,5) not deterministic:\n%+v\n%+v", r1, r2)
	}
	for trial := 0; trial < 4; trial++ {
		if _, err := env.RunFuzzTrial(ctx, 1, trial, true, true); err != nil {
			t.Errorf("affine+interrupt trial %d: %v", trial, err)
		}
	}
}

func TestFuzzArtifactRoundTrip(t *testing.T) {
	se := &SimError{Kind: KindDivergence, Bench: "srvfuzz", Loop: "trial-5",
		Variant: "srv-pipeline", Seed: 3, Msg: "synthetic"}
	path, err := WriteFuzzArtifact(t.TempDir(), 3, 5, false, false, se)
	if err != nil {
		t.Fatal(err)
	}
	if se.Artifact != path {
		t.Errorf("artifact path not recorded on the SimError")
	}
	var buf bytes.Buffer
	if err := testEnv().ReplayArtifact(context.Background(), path, &buf); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Trial (3,5) actually passes, so the replay must report non-reproduction.
	if !strings.Contains(buf.String(), "did not reproduce") {
		t.Errorf("unexpected replay outcome:\n%s", buf.String())
	}
}

// TestDiagnosisUsesRequestConfig: a loop that fails under its request's own
// pipeline configuration must be re-run and recorded under that
// configuration, or the diagnosis and `srvsim -repro` examine a different
// simulation from the one that failed.
func TestDiagnosisUsesRequestConfig(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	pcfg := cfg()
	pcfg.MaxCycles = 1000
	env := &Env{Parallelism: DefaultParallelism(), CrashDir: t.TempDir()}
	br, err := env.RunBenchmark(context.Background(), b, 7, WithConfig(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Failures) == 0 {
		t.Fatal("no loop failed under a 1000-cycle budget")
	}
	for _, se := range br.Failures {
		if se.Kind != KindCycleBudget {
			t.Errorf("%s: kind = %v, want CycleBudget", se.Loop, se.Kind)
		}
		data, err := os.ReadFile(se.Artifact)
		if err != nil {
			t.Fatalf("%s: %v", se.Loop, err)
		}
		var art CrashArtifact
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatalf("%s: %v", se.Loop, err)
		}
		if art.Config == nil || !reflect.DeepEqual(*art.Config, pcfg) {
			t.Errorf("%s: artifact config is not the request's: %+v", se.Loop, art.Config)
		}
		if !strings.HasPrefix(art.Diagnosis, "reproduced") {
			t.Errorf("%s: diagnosis %q, want a reproduction", se.Loop, art.Diagnosis)
		}
	}
}

// TestReplayArtifactReproduces exercises the positive replay path: an
// artifact whose recorded config makes the failure genuine (a cycle budget
// far too small for the loop) must report REPRODUCED.
func TestReplayArtifactReproduces(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	ls := b.Loops[0]
	pcfg := cfg()
	pcfg.MaxCycles = 100
	art := CrashArtifact{
		Tool: "harness", Bench: b.Name, Loop: ls.Shape.Name, Variant: "srv",
		Seed: 7, Shape: &ls.Shape, Weight: ls.Weight, PredTail: ls.PredTail,
		Config:  &pcfg,
		Failure: FailureRecord{Kind: KindCycleBudget.String(), Message: "synthetic budget blowout"},
	}
	path, err := writeArtifact(t.TempDir(), "repro_positive", art)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := testEnv().ReplayArtifact(context.Background(), path, &buf); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(buf.String(), "REPRODUCED") {
		t.Errorf("genuine failure did not reproduce:\n%s", buf.String())
	}
}
