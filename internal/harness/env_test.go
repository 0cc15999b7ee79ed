package harness

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// TestEnvsShareNothing runs two Envs at once in one process, one serial and
// clean, one parallel under chaos, each with its own span recorder. Each
// Env's fleet counters and spans must account for its own simulations only,
// and the clean Env's results must be byte-identical to a run on a third,
// idle Env, as must every loop chaos left alone.
func TestEnvsShareNothing(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not defined")
	}
	const seed = 7
	ctx := context.Background()
	want, err := testEnv().RunBenchmark(ctx, b, seed)
	if err != nil {
		t.Fatal(err)
	}

	clean := &Env{Parallelism: 1}
	chaos := &Env{Parallelism: 4, ChaosProb: 0.5}
	for s := int64(1); ; s++ {
		chaos.ChaosSeed = s
		faulted := 0
		for _, ls := range b.Loops {
			if chaos.chaosFaultFor(b.Name, ls.Shape.Name, "scalar") != chaosNone ||
				chaos.chaosFaultFor(b.Name, ls.Shape.Name, "srv") != chaosNone {
				faulted++
			}
		}
		if faulted > 0 && faulted < len(b.Loops) {
			break
		}
		if s == 200 {
			t.Fatal("no chaos seed yields a mixed fault/clean split at p=0.5")
		}
	}
	cleanRec, chaosRec := obsv.NewSpanRecorder(0), obsv.NewSpanRecorder(0)
	cleanRoot, chaosRoot := clean.TraceTo(cleanRec), chaos.TraceTo(chaosRec)

	var got, chaotic BenchResult
	var cleanErr, chaosErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got, cleanErr = clean.RunBenchmark(ctx, b, seed) }()
	go func() { defer wg.Done(); chaotic, chaosErr = chaos.RunBenchmark(ctx, b, seed) }()
	wg.Wait()
	if cleanErr != nil || chaosErr != nil {
		t.Fatalf("runs failed: clean %v, chaos %v", cleanErr, chaosErr)
	}

	// Every loop runs both variants in each Env (the chaos Env's two
	// variants run side by side, so a fault in one does not skip the other).
	sims := int64(2 * len(b.Loops))
	injected := int64(0)
	for _, ls := range b.Loops {
		for _, v := range []string{"scalar", "srv"} {
			if chaos.chaosFaultFor(b.Name, ls.Shape.Name, v) != chaosNone {
				injected++
			}
		}
	}
	if s := clean.SnapshotFleet(); s.Simulations != sims || s.Failures != 0 || s.ChaosInjected != 0 || s.Workers != 1 {
		t.Errorf("clean fleet = %+v, want %d simulations, no failures, 1 worker", s, sims)
	}
	if s := chaos.SnapshotFleet(); s.Simulations != sims || s.ChaosInjected != injected || s.Workers != 4 {
		t.Errorf("chaos fleet = %+v, want %d simulations, %d injected, 4 workers", s, sims, injected)
	}
	for _, c := range []struct {
		name string
		rec  *obsv.SpanRecorder
		root obsv.SpanContext
	}{{"clean", cleanRec, cleanRoot}, {"chaos", chaosRec, chaosRoot}} {
		spans := c.rec.Snapshot()
		if int64(len(spans)) != sims {
			t.Errorf("%s recorder holds %d spans, want %d", c.name, len(spans), sims)
		}
		for _, sp := range spans {
			if sp.Trace != c.root.Trace || sp.Parent != c.root.Span {
				t.Errorf("%s recorder holds a span outside its root: %+v", c.name, sp)
			}
		}
	}

	if !jsonEqual(t, want.Loops, got.Loops) || want.Speedup != got.Speedup {
		t.Error("the clean Env's results differ from an idle Env's")
	}
	failed := map[string]bool{}
	for _, se := range chaotic.Failures {
		failed[se.Loop] = true
	}
	if len(failed) == 0 || len(chaotic.Loops) == 0 {
		t.Fatalf("chaos run: %d failed loops, %d clean; want both", len(failed), len(chaotic.Loops))
	}
	byName := map[string]LoopResult{}
	for _, lr := range want.Loops {
		byName[lr.Loop] = lr
	}
	for _, lr := range chaotic.Loops {
		if !jsonEqual(t, byName[lr.Loop], lr) {
			t.Errorf("%s: unfaulted loop differs under the chaos Env", lr.Loop)
		}
	}
}

// jsonEqual reports whether a and b marshal to the same bytes.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}
