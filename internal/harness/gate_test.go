package harness

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srvsim/internal/workloads"
)

func timingOf(rows ...BenchTiming) *TimingReport {
	return &TimingReport{Seed: 7, Benchmarks: rows}
}

func row(bench string, scalar, srv int64) BenchTiming {
	return BenchTiming{Bench: bench, ScalarCycles: scalar, SRVCycles: srv}
}

func TestGateIdenticalReportsPass(t *testing.T) {
	base := timingOf(row("is", 100_000, 30_000), row("bzip2", 200_000, 50_000))
	g := Gate(base, base, 0)
	if !g.Pass {
		t.Fatalf("identical reports must pass:\n%s", g)
	}
	if g.Geomean != 1.0 {
		t.Errorf("geomean = %v, want exactly 1.0", g.Geomean)
	}
	if g.Threshold != DefaultGateThreshold {
		t.Errorf("threshold = %v, want default %v", g.Threshold, DefaultGateThreshold)
	}
}

func TestGateRegressionFails(t *testing.T) {
	base := timingOf(row("is", 100_000, 30_000), row("bzip2", 200_000, 50_000))
	// +25% cycles on both benchmarks: geomean 1.25 > 1.10.
	fresh := timingOf(row("is", 125_000, 37_500), row("bzip2", 250_000, 62_500))
	g := Gate(base, fresh, 0)
	if g.Pass {
		t.Fatalf("25%% regression must fail:\n%s", g)
	}
	if g.Geomean < 1.2499 || g.Geomean > 1.2501 {
		t.Errorf("geomean = %v, want 1.25", g.Geomean)
	}
	if !strings.Contains(g.String(), "regression") {
		t.Errorf("table does not flag the regressing rows:\n%s", g)
	}
}

// TestGateDoctoredBaselineFails is the acceptance check in reverse: a
// baseline doctored to claim 10%+ fewer cycles than reality makes the real
// run look like a regression, and the gate must say so.
func TestGateDoctoredBaselineFails(t *testing.T) {
	real := timingOf(row("is", 100_000, 30_000))
	doctored := timingOf(row("is", 88_000, 26_400)) // 12% "better" than reality
	if g := Gate(doctored, real, 0); g.Pass {
		t.Fatalf("doctored baseline must fail the real run:\n%s", g)
	}
	if g := Gate(real, real, 0); !g.Pass {
		t.Fatal("real baseline must pass the real run")
	}
}

func TestGateImprovementPasses(t *testing.T) {
	base := timingOf(row("is", 100_000, 30_000))
	fresh := timingOf(row("is", 80_000, 20_000))
	if g := Gate(base, fresh, 0); !g.Pass {
		t.Fatalf("an improvement must pass:\n%s", g)
	}
}

func TestGateSkipsDisjointBenchmarks(t *testing.T) {
	base := timingOf(row("is", 100_000, 30_000), row("gone", 1, 1))
	fresh := timingOf(row("is", 100_000, 30_000), row("added", 1, 1))
	g := Gate(base, fresh, 0)
	if !g.Pass || len(g.Rows) != 1 {
		t.Fatalf("only 'is' should gate:\n%s", g)
	}
	if len(g.Skipped) != 2 {
		t.Errorf("skipped = %v, want the disjoint pair", g.Skipped)
	}
}

func TestGateNoCommonBenchmarksFails(t *testing.T) {
	if g := Gate(timingOf(row("a", 1, 1)), timingOf(row("b", 1, 1)), 0); g.Pass {
		t.Fatal("no common benchmarks must fail, not vacuously pass")
	}
}

func TestTimingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := testEnv().WriteTimings(context.Background(), path, 7, []string{"is"}); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadTimings(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Bench != "is" {
		t.Fatalf("report rows = %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].ScalarCycles <= 0 || rep.Benchmarks[0].SRVCycles <= 0 {
		t.Errorf("cycle totals missing: %+v", rep.Benchmarks[0])
	}
	if rep.Fleet.Simulations == 0 {
		t.Error("fleet metrics missing from the report")
	}
	// Self-gate: a report must pass against itself.
	if g := Gate(rep, rep, 0); !g.Pass {
		t.Errorf("self-gate failed:\n%s", g)
	}
}

// TestLoadTimingsTruncatedBaseline: a partial or empty baseline must fail
// the gate with an explicit diagnosis, never pass it vacuously.
func TestLoadTimingsTruncatedBaseline(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if err := testEnv().WriteTimings(context.Background(), full, 7, []string{"is"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// A report cut mid-write (interrupted `make timing`, partial copy).
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadTimings(torn)
	if err == nil || !strings.Contains(err.Error(), "truncated or corrupt timing report") {
		t.Fatalf("torn baseline error = %v, want truncation diagnosis", err)
	}
	if !strings.Contains(err.Error(), "make timing") {
		t.Fatalf("truncation error omits the remedy: %v", err)
	}

	// Valid JSON but no benchmark rows: the gate would compare nothing.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema_version":1,"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadTimings(empty)
	if err == nil || !strings.Contains(err.Error(), "no benchmark rows") {
		t.Fatalf("empty baseline error = %v, want no-rows diagnosis", err)
	}
}

func TestWriteTimingsUnknownBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	err := testEnv().WriteTimings(context.Background(), path, 7, []string{"is", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v, want unknown-benchmark error", err)
	}
}

func TestFleetAccounting(t *testing.T) {
	env := testEnv()
	if s := env.SnapshotFleet(); s.Simulations != 0 {
		t.Fatalf("fresh Env reports %d sims", s.Simulations)
	}
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark 'is' missing")
	}
	if _, err := env.RunLoop(context.Background(), b.Name, b.Loops[0], 7); err != nil {
		t.Fatal(err)
	}
	s := env.SnapshotFleet()
	if s.Simulations != 2 { // one scalar + one SRV variant
		t.Errorf("simulations = %d, want 2", s.Simulations)
	}
	if s.Failures != 0 || s.ChaosInjected != 0 {
		t.Errorf("clean run reports failures: %+v", s)
	}
	if s.BusyMS <= 0 || s.ScalarMS <= 0 || s.SRVMS <= 0 {
		t.Errorf("busy time not recorded: %+v", s)
	}
	if !strings.Contains(s.String(), "2 simulations") {
		t.Errorf("summary: %s", s)
	}
	env.ResetFleet()
	if s := env.SnapshotFleet(); s.Simulations != 0 || s.BusyMS != 0 {
		t.Errorf("reset fleet still reports %+v", s)
	}
}
