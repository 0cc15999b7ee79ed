package pipeline

import (
	"math/rand"
	"strings"
	"testing"

	"srvsim/internal/isa"
)

// runVariant executes listing 1 under a config variant and returns cycles.
func runVariant(t *testing.T, cfg Config, n int, xs []int64) (int64, *Pipeline) {
	t.Helper()
	im, aBase, xBase, ref := setupListing1(n, xs)
	p := New(cfg, listing1Prog(aBase, xBase, n), im)
	warmLines(p, aBase, xBase, n)
	run(t, p)
	checkListing1(t, im, aBase, ref, n)
	return p.Stats.Cycles, p
}

func TestAblationRelaxedBarrier(t *testing.T) {
	const n = 1024
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	base, _ := runVariant(t, testConfig(), n, xs)
	relaxed := testConfig()
	relaxed.RelaxedBarrier = true
	rel, _ := runVariant(t, relaxed, n, xs)
	t.Logf("barrier ablation: strict %d cycles, relaxed %d cycles (%.2fx)",
		base, rel, float64(base)/float64(rel))
	if rel > base {
		t.Errorf("relaxed barrier must not be slower: %d vs %d", rel, base)
	}
}

func TestAblationRelaxedBarrierWithConflicts(t *testing.T) {
	// Correctness under replay: the relaxed barrier must still squash the
	// younger speculatively-issued work when srv_end triggers a replay.
	const n = 256
	xs := paperIndices(n)
	relaxed := testConfig()
	relaxed.RelaxedBarrier = true
	_, p := runVariant(t, relaxed, n, xs)
	if p.Ctrl.Stats.Replays == 0 {
		t.Error("conflict pattern must replay under the relaxed barrier too")
	}
}

func TestAblationConservativeMem(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(5))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(n))
	}
	base, aggP := runVariant(t, testConfig(), n, xs)
	cons := testConfig()
	cons.ConservativeMem = true
	slow, consP := runVariant(t, cons, n, xs)
	t.Logf("memory scheduling ablation: aggressive %d cycles, conservative %d cycles (%.2fx)",
		base, slow, float64(slow)/float64(base))
	if consP.Stats.VerticalSquashes != 0 {
		t.Errorf("conservative scheduling can never misspeculate, got %d squashes",
			consP.Stats.VerticalSquashes)
	}
	_ = aggP
	if slow < base {
		t.Logf("note: conservative happened to be faster on this input (%d < %d)", slow, base)
	}
}

func TestAblationSmallerLSQFallsBack(t *testing.T) {
	// LSQ sweep: shrinking the LSU below the region's footprint demotes the
	// region to sequential fallback but never breaks correctness.
	const n = 128
	xs := paperIndices(n)
	for _, size := range []int{64, 32, 12} {
		cfg := testConfig()
		cfg.LSQSize = size
		_, p := runVariant(t, cfg, n, xs)
		if size >= 32 && p.Ctrl.Stats.Fallbacks != 0 {
			t.Errorf("LSQ=%d: unexpected fallback", size)
		}
		if size == 12 && p.Ctrl.Stats.Fallbacks == 0 {
			t.Errorf("LSQ=%d: expected fallback", size)
		}
	}
}

// TestRelaxedBarrierRandomised cross-checks the relaxed-barrier ablation
// against the interpreter on random conflict patterns.
func TestRelaxedBarrierRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := testConfig()
	cfg.RelaxedBarrier = true
	for trial := 0; trial < 10; trial++ {
		const n = 32
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(n))
		}
		im, aBase, xBase, _ := setupListing1(n, xs)
		im2 := im.Clone()
		prog := listing1Prog(aBase, xBase, n)
		p := New(cfg, prog, im)
		if err := p.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ip := isa.NewInterp(prog, im2)
		if err := ip.Run(1_000_000); err != nil {
			t.Fatalf("trial %d interp: %v", trial, err)
		}
		if addr, diff := im.FirstDiff(im2); diff {
			t.Fatalf("trial %d: relaxed barrier diverges at %#x (xs=%v)", trial, addr, xs)
		}
	}
}

// TestInOrderCore exercises the paper's §III-D6: SRV on an in-order
// pipeline. Correctness must be identical; the in-order core is slower than
// the out-of-order one, and SRV's relative benefit on it is at least as
// large (vector instructions carry the latency overlap an in-order scalar
// pipeline cannot find).
func TestInOrderCore(t *testing.T) {
	const n = 512
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	inorder := testConfig()
	inorder.InOrder = true

	oooSRV, _ := runVariant(t, testConfig(), n, xs)
	ioSRV, p := runVariant(t, inorder, n, xs)
	if p.Stats.VerticalSquashes != 0 {
		t.Errorf("in-order issue cannot misspeculate memory order, got %d squashes",
			p.Stats.VerticalSquashes)
	}
	if ioSRV < oooSRV {
		t.Errorf("in-order SRV (%d cycles) should not beat out-of-order (%d)", ioSRV, oooSRV)
	}

	// Scalar comparison on both cores.
	scalarCycles := func(cfg Config) int64 {
		im, aBase, xBase, _ := setupListing1(n, xs)
		_ = aBase
		prog := isa.NewBuilder().
			MovI(0, 0).
			MovI(1, n).
			MovI(2, int64(aBase)).
			MovI(3, int64(xBase)).
			MovI(4, int64(aBase)).
			Label("loop").
			Load(5, 2, 0, 4).
			AddI(5, 5, 2).
			Load(6, 3, 0, 4).
			ShlI(6, 6, 2).
			Add(6, 6, 4).
			Store(6, 0, 4, 5).
			AddI(0, 0, 1).
			AddI(2, 2, 4).
			AddI(3, 3, 4).
			BLT(0, 1, "loop").
			Halt().
			MustBuild()
		sp := New(cfg, prog, im)
		warmLines(sp, aBase, xBase, n)
		run(t, sp)
		return sp.Stats.Cycles
	}
	oooScalar := scalarCycles(testConfig())
	ioScalar := scalarCycles(inorder)
	oooSpeedup := float64(oooScalar) / float64(oooSRV)
	ioSpeedup := float64(ioScalar) / float64(ioSRV)
	t.Logf("OoO: scalar %d / SRV %d = %.2fx | in-order: scalar %d / SRV %d = %.2fx",
		oooScalar, oooSRV, oooSpeedup, ioScalar, ioSRV, ioSpeedup)
	if ioSpeedup < oooSpeedup*0.8 {
		t.Errorf("SRV speedup on the in-order core (%.2fx) collapsed vs OoO (%.2fx)",
			ioSpeedup, oooSpeedup)
	}
}

func TestDumpStatsRendering(t *testing.T) {
	const n = 64
	xs := paperIndices(n)
	im, aBase, xBase, _ := setupListing1(n, xs)
	p := New(testConfig(), listing1Prog(aBase, xBase, n), im)
	run(t, p)
	out := p.DumpStats()
	for _, want := range []string{"sim.cycles", "srv.replays", "lsu.camLookups",
		"bp.accuracy", "l2.misses", "srv.viol.raw"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats dump missing %q", want)
		}
	}
}

func TestTimelineRecording(t *testing.T) {
	const n = 32
	xs := paperIndices(n)
	im, aBase, xBase, _ := setupListing1(n, xs)
	p := New(testConfig(), listing1Prog(aBase, xBase, n), im)
	p.EnableTimeline()
	run(t, p)
	tl := p.Timeline()
	if len(tl) == 0 {
		t.Fatal("timeline empty")
	}
	for i, e := range tl {
		if e.Fetch > e.Dispatch || e.Dispatch > e.Issue || e.Issue > e.Commit {
			t.Errorf("entry %d: stages out of order: %+v", i, e)
		}
		if i > 0 && e.Commit < tl[i-1].Commit {
			t.Errorf("entry %d: commits out of order", i)
		}
	}
	out := RenderTimeline(tl, 0, 12)
	for _, want := range []string{"srv_start", "v_scatter", "f", "c"} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeview missing %q:\n%s", want, out)
		}
	}
}

func TestRegionDurations(t *testing.T) {
	const n = 64
	xs := paperIndices(n) // one replay per region
	im, aBase, xBase, _ := setupListing1(n, xs)
	p := New(testConfig(), listing1Prog(aBase, xBase, n), im)
	warmLines(p, aBase, xBase, n)
	run(t, p)
	ds := p.RegionDurations()
	if ds.Total() != 4 {
		t.Fatalf("region durations = %d, want 4", ds.Total())
	}
	if m := ds.Max(); m <= 0 || m > 500 {
		t.Errorf("max region duration %d out of range", m)
	}
	if m := ds.Mean(); m <= 0 || m > float64(ds.Max()) {
		t.Errorf("mean region duration %v out of range (max %d)", m, ds.Max())
	}
}

// TestRegionDurationsCoverEveryRegion: the duration record covers every
// region of a long run, not a capped prefix. Two runs of more than
// TimelineCap regions differ only in their last region, which replays in
// one of them; that run's maximum and mean must both be higher.
func TestRegionDurationsCoverEveryRegion(t *testing.T) {
	const n = 16 * (TimelineCap + 64)
	durations := func(lateConflict bool) (*Pipeline, int64) {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i)
		}
		if lateConflict {
			i := int64(n - 16) // the paper's pattern in the last group: one RAW
			xs[i], xs[i+1], xs[i+2], xs[i+3] = i+3, i, i+1, i+2
		}
		im, aBase, xBase, _ := setupListing1(n, xs)
		p := New(testConfig(), listing1Prog(aBase, xBase, n), im)
		run(t, p)
		return p, p.Ctrl.Stats.Replays
	}
	clean, cleanReplays := durations(false)
	late, lateReplays := durations(true)
	if cleanReplays != 0 || lateReplays == 0 {
		t.Fatalf("replays: clean run %d, late-conflict run %d; want 0 and > 0", cleanReplays, lateReplays)
	}
	for _, p := range []*Pipeline{clean, late} {
		if got, want := p.RegionDurations().Total(), p.Ctrl.Stats.Regions; got != want || want <= TimelineCap {
			t.Fatalf("recorded %d region durations over %d regions, want all of more than %d", got, want, TimelineCap)
		}
	}
	c, l := clean.RegionDurations(), late.RegionDurations()
	if l.Max() <= c.Max() {
		t.Errorf("max duration with a replay in the last region %d, without %d: the last region is not covered", l.Max(), c.Max())
	}
	if l.Mean() <= c.Mean() {
		t.Errorf("mean duration with a replay in the last region %v, without %v: the last region is not covered", l.Mean(), c.Mean())
	}
}
