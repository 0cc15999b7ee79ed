package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"srvsim/internal/stats"
	"srvsim/internal/workloads"
)

// testEnv returns a fresh Env with one worker per CPU. Each test builds its
// own, so no test inherits another's settings or fleet counters.
func testEnv() *Env { return &Env{Parallelism: DefaultParallelism()} }

// TestEveryBenchmarkCorrectAndMeasured is the top-level integration test:
// every workload loop runs in scalar and SRV form, both must match the
// reference evaluator (checked inside RunLoop), and the aggregate shapes
// must reproduce the paper's evaluation (see EXPERIMENTS.md for the
// per-figure comparison).
func TestEveryBenchmarkCorrectAndMeasured(t *testing.T) {
	rs, err := testEnv().Measure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Bench) != 16 {
		t.Fatalf("benchmarks = %d, want 16 (11 SPEC + 5 HPC)", len(rs.Bench))
	}
	var speedups, wholes []float64
	violBenches := 0
	byName := map[string]BenchResult{}
	for _, br := range rs.Bench {
		byName[br.Bench.Name] = br
		speedups = append(speedups, br.Speedup)
		wholes = append(wholes, br.Whole)
		if br.Speedup < 1.2 {
			t.Errorf("%s: loop speedup %.2f below 1.2x", br.Bench.Name, br.Speedup)
		}
		raw := int64(0)
		for _, lr := range br.Loops {
			raw += lr.RAW
		}
		if raw > 0 {
			violBenches++
		}
		if br.Barrier < 0 || br.Barrier > 0.10 {
			t.Errorf("%s: barrier fraction %.1f%% outside [0,10%%]", br.Bench.Name, br.Barrier*100)
		}
	}
	// Headline shapes (paper: avg 2.9x, max 5.3x; whole-program max 1.26x
	// on is; geomean ~1.05).
	if avg := stats.Mean(speedups); avg < 2.0 || avg > 3.8 {
		t.Errorf("average loop speedup = %.2f, want within [2.0, 3.8] (paper 2.9)", avg)
	}
	if max := stats.Max(speedups); max < 4.5 {
		t.Errorf("max loop speedup = %.2f, want >= 4.5 (paper 5.3)", max)
	}
	if g := stats.Geomean(wholes); g < 1.02 || g > 1.12 {
		t.Errorf("whole-program geomean = %.3f, want within [1.02, 1.12] (paper 1.05)", g)
	}
	// is must be the biggest whole-program winner (paper 1.26x).
	if is := byName["is"]; is.Whole < 1.15 {
		t.Errorf("is whole-program speedup = %.3f, want >= 1.15 (paper 1.26)", is.Whole)
	}
	// Gather-bound benchmarks sit at the bottom of the loop-speedup range
	// (paper: omnetpp 1.49, soplex 1.29, xalancbmk 1.78).
	for _, name := range []string{"omnetpp", "soplex", "xalancbmk", "milc"} {
		if s := byName[name].Speedup; s > 2.2 {
			t.Errorf("%s: loop speedup %.2f, want <= 2.2 (gather-bound)", name, s)
		}
	}
	// Exactly the paper's count of violation-bearing benchmarks (Fig 9: 4).
	if violBenches != 4 {
		t.Errorf("benchmarks with runtime violations = %d, want 4", violBenches)
	}
}

func TestFig9ReplayOverheadTiny(t *testing.T) {
	rs, err := testEnv().Measure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range rs.Bench {
		var replays, iters int64
		for _, lr := range br.Loops {
			replays += lr.ReplayRounds
			iters += lr.VectorIters
		}
		if iters == 0 {
			continue
		}
		if frac := float64(replays) / float64(iters); frac > 0.02 {
			t.Errorf("%s: replay iterations = %.3f%% of vector iterations, want < 2%%", br.Bench.Name, frac*100)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rs, err := testEnv().Measure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram()
	for _, br := range rs.Bench {
		for _, lr := range br.Loops {
			h.Add(lr.MemAccesses)
		}
	}
	if f := h.CumulativeAtMost(10); f < 0.6 {
		t.Errorf("loops with <=10 accesses = %.0f%%, want >= 60%% (paper ~80%%)", f*100)
	}
	// And a tail beyond 16 accesses must exist.
	if h.CumulativeAtMost(16) == 1.0 {
		t.Error("no loop has more than 16 memory accesses; the paper reports a tail")
	}
}

func TestFig13SRVBeatsFlexVec(t *testing.T) {
	for _, name := range []string{"bzip2", "is", "omnetpp"} {
		b, _ := workloads.ByName(name)
		_, ratio, err := testEnv().RunFlexVec(context.Background(), b, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ratio >= 1.0 {
			t.Errorf("%s: SRV/FlexVec instruction ratio = %.2f, want < 1", name, ratio)
		}
	}
}

func TestLimitStudyShape(t *testing.T) {
	env := testEnv()
	var all, safe []float64
	for _, b := range workloads.All() {
		s, err := env.RunLimit(context.Background(), b, 7)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s.PotentialAll)
		safe = append(safe, s.PotentialSafeOnly)
		if s.UnknownFrac < 0.7 {
			t.Errorf("%s: unknown-dep fraction of unvectorised loops = %.2f, want >= 0.7", b.Name, s.UnknownFrac)
		}
	}
	if m := stats.Mean(all); m < 1.6 || m > 2.6 {
		t.Errorf("mean potential = %.2f, want within [1.6, 2.6] (paper 2.1)", m)
	}
	if m := stats.Mean(safe); m > 1.12 {
		t.Errorf("mean safe-only potential = %.2f, want <= 1.12 (paper 1.02)", m)
	}
}

func TestReportsRender(t *testing.T) {
	rep := Table1()
	if !strings.Contains(rep.Body, "400-entry") || !strings.Contains(rep.Body, "32KiB") {
		t.Errorf("Table I missing config values:\n%s", rep.Body)
	}
	rs, err := testEnv().Measure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []Report{Fig6(rs), Fig7(rs), Fig8(rs), Fig9(rs), Fig10(rs), Fig11(rs), Fig12(rs)} {
		if len(rep.Body) == 0 || !strings.Contains(rep.String(), rep.ID) {
			t.Errorf("%s: empty or malformed report", rep.ID)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf strings.Builder
	if err := testEnv().WriteJSON(context.Background(), 7, &buf); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 16 || len(rep.LimitStudy) != 16 {
		t.Fatalf("benchmarks/limit entries = %d/%d, want 16/16",
			len(rep.Benchmarks), len(rep.LimitStudy))
	}
	s := rep.Summary
	if s.AvgLoopSpeedup < 2 || s.AvgLoopSpeedup > 3.5 {
		t.Errorf("avg loop speedup %.2f outside the calibrated band", s.AvgLoopSpeedup)
	}
	if s.BenchesWithViol != 4 {
		t.Errorf("benchmarks with violations = %d, want 4", s.BenchesWithViol)
	}
	if s.SRVFlexVecMeanRate <= 0.4 || s.SRVFlexVecMeanRate >= 0.8 {
		t.Errorf("SRV/FlexVec mean ratio %.2f outside band", s.SRVFlexVecMeanRate)
	}
	for _, b := range rep.Benchmarks {
		for _, l := range b.Loops {
			if l.Regions <= 0 || l.RegionDurMean <= 0 || l.LSUHighWater <= 0 {
				t.Errorf("%s/%s: region profile fields must be populated: %+v", b.Name, l.Name, l)
			}
			if l.Estimated <= 0 {
				t.Errorf("%s/%s: estimated speedup missing", b.Name, l.Name)
			}
		}
	}
}

// TestDeterministicCycles guards against nondeterministic code emission or
// simulation (map-iteration order leaking into instruction sequences):
// identical seeds must produce identical cycle counts.
func TestDeterministicCycles(t *testing.T) {
	b, _ := workloads.ByName("gcc")
	first, err := testEnv().RunLoop(context.Background(), b.Name, b.Loops[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := testEnv().RunLoop(context.Background(), b.Name, b.Loops[0], 7)
		if err != nil {
			t.Fatal(err)
		}
		if again.ScalarCycles != first.ScalarCycles || again.SRVCycles != first.SRVCycles {
			t.Fatalf("trial %d: cycles differ: scalar %d vs %d, srv %d vs %d",
				trial, again.ScalarCycles, first.ScalarCycles, again.SRVCycles, first.SRVCycles)
		}
	}
}

// TestSweepShape asserts the structural-sensitivity story: SRV cycles are
// insensitive to issue width, and an LSQ below the region footprint falls
// off the fallback cliff while 48+ entries restore full speed.
func TestSweepShape(t *testing.T) {
	bm, _ := workloads.ByName("is")
	small := cfg()
	small.LSQSize = 24
	cliff, err := testEnv().RunLoop(context.Background(), bm.Name, bm.Loops[0], 7, WithConfig(small))
	if err != nil {
		t.Fatal(err)
	}
	if cliff.Fallbacks == 0 {
		t.Error("a 24-entry LSQ must overflow into sequential fallback")
	}
	if cliff.Speedup >= 1 {
		t.Errorf("fallback-dominated speedup = %.2f, want < 1", cliff.Speedup)
	}
	ok, err := testEnv().RunLoop(context.Background(), bm.Name, bm.Loops[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Fallbacks != 0 || ok.Speedup < 3 {
		t.Errorf("Table I config: fallbacks=%d speedup=%.2f, want 0 and >3",
			ok.Fallbacks, ok.Speedup)
	}
}
