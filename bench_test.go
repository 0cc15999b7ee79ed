package srvsim_test

import (
	"context"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/harness"
	"srvsim/internal/pipeline"
	"srvsim/internal/stats"
	"srvsim/internal/workloads"
)

// The benchmarks below regenerate the paper's tables and figures; each
// reports its headline numbers as custom metrics so `go test -bench=.`
// doubles as the experiment log (cmd/srvbench prints the full tables).
// Timing per op is the cost of regenerating the experiment, not a paper
// metric.

const benchSeed = 7

// requestConfig is the Table I configuration under the harness's cycle
// budget: the largest a request may carry (harness.MaxConfigCycles).
func requestConfig() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = harness.MaxConfigCycles
	return c
}

// env is the harness environment every benchmark here runs in.
var (
	env = &harness.Env{Parallelism: harness.DefaultParallelism()}
	ctx = context.Background()
)

// measure caches the expensive full-suite measurement across benchmarks.
var measured *harness.Results

func measureOnce(b *testing.B) harness.Results {
	b.Helper()
	if measured == nil {
		rs, err := env.Measure(ctx, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		measured = &rs
	}
	return *measured
}

// BenchmarkTable1Config exercises the Table I configuration: one listing-1
// style loop through the default pipeline.
func BenchmarkTable1Config(b *testing.B) {
	bm, _ := workloads.ByName("bzip2")
	for i := 0; i < b.N; i++ {
		lr, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lr.SRVCycles), "srv-cycles")
	}
	cfg := pipeline.DefaultConfig()
	b.ReportMetric(float64(cfg.ROBSize), "rob-entries")
	b.ReportMetric(float64(cfg.LSQSize), "lsu-entries")
}

// BenchmarkLimitStudy regenerates the §II motivation numbers (paper: 2.1x
// potential, 1.02x without unknown-dependence loops, >70% unknown).
func BenchmarkLimitStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var all, safe, unk []float64
		for _, bm := range workloads.All() {
			s, err := env.RunLimit(ctx, bm, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, s.PotentialAll)
			safe = append(safe, s.PotentialSafeOnly)
			unk = append(unk, s.UnknownFrac)
		}
		b.ReportMetric(stats.Mean(all), "potential-x")
		b.ReportMetric(stats.Mean(safe), "safe-only-x")
		b.ReportMetric(stats.Mean(unk)*100, "unknown-%")
	}
}

// BenchmarkFig6PerLoopSpeedup regenerates Fig 6 (paper: average 2.9x, max
// 5.3x on is).
func BenchmarkFig6PerLoopSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		var sps []float64
		for _, br := range rs.Bench {
			sps = append(sps, br.Speedup)
		}
		b.ReportMetric(stats.Mean(sps), "avg-speedup-x")
		b.ReportMetric(stats.Max(sps), "max-speedup-x")
	}
}

// BenchmarkFig7WholeProgram regenerates Fig 7 (paper: geomean 1.05x, max
// 1.26x on is).
func BenchmarkFig7WholeProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		var all []float64
		for _, br := range rs.Bench {
			all = append(all, br.Whole)
		}
		b.ReportMetric(stats.Geomean(all), "geomean-x")
		b.ReportMetric(stats.Max(all), "max-x")
	}
}

// BenchmarkFig8BarrierCycles regenerates Fig 8 (paper: mostly < 4%, worst
// ~8% for short-trip loops).
func BenchmarkFig8BarrierCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		var fr []float64
		for _, br := range rs.Bench {
			fr = append(fr, br.Barrier*100)
		}
		b.ReportMetric(stats.Mean(fr), "avg-barrier-%")
		b.ReportMetric(stats.Max(fr), "max-barrier-%")
	}
}

// BenchmarkFig9Violations regenerates Fig 9 (paper: 4 benchmarks incur
// violations; replay overhead < 1% of vector iterations).
func BenchmarkFig9Violations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		viol := 0
		var worstReplay float64
		for _, br := range rs.Bench {
			var raw, replays, iters int64
			for _, lr := range br.Loops {
				raw += lr.RAW
				replays += lr.ReplayRounds
				iters += lr.VectorIters
			}
			if raw > 0 {
				viol++
			}
			if iters > 0 {
				if f := float64(replays) / float64(iters) * 100; f > worstReplay {
					worstReplay = f
				}
			}
		}
		b.ReportMetric(float64(viol), "benches-with-violations")
		b.ReportMetric(worstReplay, "worst-replay-%")
	}
}

// BenchmarkFig10MemAccessHistogram regenerates Fig 10 (paper: ~80% of loops
// have <= 10 accesses; <= 3 gather/scatters in those; a few > 16).
func BenchmarkFig10MemAccessHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := stats.NewHistogram()
		for _, bm := range workloads.All() {
			for _, ls := range bm.Loops {
				total, _ := ls.Shape.Build().MemAccessCount()
				h.Add(total)
			}
		}
		b.ReportMetric(h.CumulativeAtMost(10)*100, "loops<=10acc-%")
		b.ReportMetric(float64(h.Total()), "loops")
	}
}

// BenchmarkFig11Disambiguations regenerates Fig 11 (paper: SRV adds up to
// 60% more address disambiguations; some benchmarks need fewer).
func BenchmarkFig11Disambiguations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		var worst, best float64 = 0, 1e9
		for _, br := range rs.Bench {
			var sv, vv, vh int64
			for _, lr := range br.Loops {
				sv += lr.SeqVertDisamb
				vv += lr.SRVVertDisamb
				vh += lr.SRVHorizDisamb
			}
			if sv == 0 {
				continue
			}
			r := float64(vv+vh) / float64(sv)
			if r > worst {
				worst = r
			}
			if r < best {
				best = r
			}
		}
		b.ReportMetric(worst, "max-ratio")
		b.ReportMetric(best, "min-ratio")
	}
}

// BenchmarkFig12Power regenerates Fig 12 (paper: <= +3.2% core power; some
// benchmarks negative).
func BenchmarkFig12Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := measureOnce(b)
		rep := harness.Fig12(rs)
		b.ReportMetric(float64(len(rep.Body)), "report-bytes")
	}
}

// BenchmarkFig13FlexVec regenerates Fig 13 (paper: SRV needs < 60% of
// FlexVec's dynamic instructions for most benchmarks).
func BenchmarkFig13FlexVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, bm := range workloads.All() {
			_, ratio, err := env.RunFlexVec(ctx, bm, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, ratio)
		}
		b.ReportMetric(stats.Mean(ratios), "srv/flexvec")
	}
}

// BenchmarkStructuralSweep regenerates the width/IQ/LSQ sensitivity report
// (`srvbench -exp sweep`), reporting the headline deltas: the scalar
// slowdown from halving the IQ and the fallback cliff of a 24-entry LSQ.
func BenchmarkStructuralSweep(b *testing.B) {
	bm, _ := workloads.ByName("is")
	for i := 0; i < b.N; i++ {
		base, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		iq16 := requestConfig()
		iq16.IQSize = 16
		small, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(iq16))
		if err != nil {
			b.Fatal(err)
		}
		lsq24 := requestConfig()
		lsq24.LSQSize = 24
		cliff, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(lsq24))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(small.ScalarCycles)/float64(base.ScalarCycles), "iq16-scalar-slowdown-x")
		b.ReportMetric(cliff.Speedup, "lsq24-speedup-x")
		b.ReportMetric(base.Speedup, "tableI-speedup-x")
	}
}

// BenchmarkPipelineScalarIPC is a micro-benchmark of the simulator itself:
// simulated scalar instructions per host-second.
func BenchmarkPipelineScalarIPC(b *testing.B) {
	bm, _ := workloads.ByName("gcc")
	l, im := bm.Loops[0].Instantiate(benchSeed)
	c, err := compiler.Compile(l, im, compiler.ModeScalar)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pipeline.DefaultConfig(), c.Prog, im.Clone())
		if err := p.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.Stats.IPC(), "sim-ipc")
	}
}

// BenchmarkWholeProgramDirect validates Fig 7's methodology by direct
// simulation: a synthetic application (scalar phases + the benchmark's SRV
// loop at its published coverage) measured end to end vs the Amdahl
// estimate used by the paper.
func BenchmarkWholeProgramDirect(b *testing.B) {
	bm, _ := workloads.ByName("is")
	for i := 0; i < b.N; i++ {
		r, err := env.RunWholeProgram(ctx, bm, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Direct, "direct-x")
		b.ReportMetric(r.AmdahlInst, "amdahl-inst-x")
		b.ReportMetric(r.AmdahlCycle, "amdahl-cycle-x")
	}
}

// BenchmarkAblationRelaxedBarrier quantifies the paper's future-work item
// ("removing the serialisation barrier in SRV-end"): SRV cycles with the
// strict barrier vs a relaxed one that lets younger non-memory work issue
// past a pending srv_end.
func BenchmarkAblationRelaxedBarrier(b *testing.B) {
	bm, _ := workloads.ByName("is")
	for i := 0; i < b.N; i++ {
		strict, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		cfg := requestConfig()
		cfg.RelaxedBarrier = true
		relaxed, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(strict.SRVCycles)/float64(relaxed.SRVCycles), "relaxed-speedup-x")
	}
}

// BenchmarkAblationConservativeMem quantifies the store-set predictor's
// value on the scalar baseline: conservative vs aggressive scalar cycles.
func BenchmarkAblationConservativeMem(b *testing.B) {
	bm, _ := workloads.ByName("bzip2")
	for i := 0; i < b.N; i++ {
		agg, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		cfg := requestConfig()
		cfg.ConservativeMem = true
		cons, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cons.ScalarCycles)/float64(agg.ScalarCycles), "conservative-slowdown-x")
	}
}

// BenchmarkAblationPredicatedTail compares the scalar epilogue against
// SVE-style tail predication on a short-trip kernel where the remainder is
// a large fraction of the work — the "small loops with short trip counts"
// class Fig 8 calls out.
func BenchmarkAblationPredicatedTail(b *testing.B) {
	shape := workloads.Shape{
		Name: "shorttrip", Trip: 57, // 3 full groups + 9 remainder
		Contig: 4, Chain: 4, Pattern: workloads.PatIdentity,
		ReadSelf: true, StoreVia: true,
	}
	for i := 0; i < b.N; i++ {
		epi, err := env.RunLoop(ctx, "tail", workloads.LoopSpec{Weight: 1, Shape: shape}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		pt := shape
		spec := workloads.LoopSpec{Weight: 1, Shape: pt}
		spec.PredTail = true
		tail, err := env.RunLoop(ctx, "tail", spec, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(epi.Speedup, "scalar-epilogue-x")
		b.ReportMetric(tail.Speedup, "predicated-tail-x")
		b.ReportMetric(float64(epi.SRVCycles)/float64(tail.SRVCycles), "tail-gain-x")
	}
}

// BenchmarkAblationSelectiveReplay quantifies the paper's headline
// mechanism: with selective replay disabled, every violating region must be
// re-executed sequentially (one lane per pass), so conflict-bearing loops
// collapse toward scalar speed while conflict-free loops are untouched.
func BenchmarkAblationSelectiveReplay(b *testing.B) {
	conflicting, _ := workloads.ByName("is") // violations at run time
	clean, _ := workloads.ByName("gcc")      // unknown deps, never violate
	for i := 0; i < b.N; i++ {
		cfg := requestConfig()
		cfg.NoSelectiveReplay = true

		with, err := env.RunLoop(ctx, conflicting.Name, conflicting.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		without, err := env.RunLoop(ctx, conflicting.Name, conflicting.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.Speedup, "selective-speedup-x")
		b.ReportMetric(without.Speedup, "fallback-speedup-x")
		b.ReportMetric(float64(without.SRVCycles)/float64(with.SRVCycles), "replay-gain-x")

		cleanAbl, err := env.RunLoop(ctx, clean.Name, clean.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cleanAbl.Speedup, "clean-loop-speedup-x")

		// A high-conflict kernel (the paper's listing-1 pattern: every
		// region replays lanes {3,7,11,15}) shows the real gap — rare-
		// conflict suite loops mask it.
		hot := workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
			Name: "hot", Trip: 1024, Contig: 4, Chain: 4,
			Pattern: workloads.PatPeriodic4, ReadSelf: true, StoreVia: true,
		}}
		hotWith, err := env.RunLoop(ctx, "hot", hot, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		hotWithout, err := env.RunLoop(ctx, "hot", hot, benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(hotWith.Speedup, "hot-selective-x")
		b.ReportMetric(hotWithout.Speedup, "hot-fallback-x")
	}
}

// BenchmarkAblationPrefetcher measures the next-line prefetcher's effect on
// a footprint-bound loop (milc streams past the L1): SRV's contiguous
// group accesses prefetch well, so the gap to scalar narrows or widens
// depending on who was more latency-bound.
func BenchmarkAblationPrefetcher(b *testing.B) {
	bm, _ := workloads.ByName("milc")
	for i := 0; i < b.N; i++ {
		off, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		cfg := requestConfig()
		cfg.Prefetch = true
		on, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(on.Speedup, "prefetch-speedup-x")
		b.ReportMetric(off.Speedup, "noprefetch-speedup-x")
		b.ReportMetric(float64(off.SRVCycles)/float64(on.SRVCycles), "srv-gain-x")
	}
}

// BenchmarkAblationLSQSweep measures how shrinking the LSU trades region
// capacity against sequential fallbacks (paper §III-D7).
func BenchmarkAblationLSQSweep(b *testing.B) {
	bm, _ := workloads.ByName("omnetpp")
	for i := 0; i < b.N; i++ {
		for _, size := range []int{64, 48, 24} {
			cfg := requestConfig()
			cfg.LSQSize = size
			lr, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(cfg))
			if err != nil {
				b.Fatal(err)
			}
			switch size {
			case 64:
				b.ReportMetric(lr.Speedup, "lsq64-speedup-x")
			case 48:
				b.ReportMetric(lr.Speedup, "lsq48-speedup-x")
			case 24:
				b.ReportMetric(lr.Speedup, "lsq24-speedup-x")
			}
		}
	}
}

// BenchmarkAblationInOrder measures SRV on the §III-D6 in-order core: the
// relative benefit grows because the vector unit supplies the latency
// overlap the in-order scalar pipeline cannot find.
func BenchmarkAblationInOrder(b *testing.B) {
	bm, _ := workloads.ByName("gcc")
	for i := 0; i < b.N; i++ {
		cfg := requestConfig()
		cfg.InOrder = true
		io, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed, harness.WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		ooo, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(io.Speedup, "inorder-speedup-x")
		b.ReportMetric(ooo.Speedup, "ooo-speedup-x")
	}
}

// BenchmarkAblationSerialisationCost quantifies the srv_end barrier's cost
// (the paper's future-work item: "removing the serialisation barrier"):
// cycles per SRV region for a conflict-free loop, against the theoretical
// body-issue floor.
func BenchmarkAblationSerialisationCost(b *testing.B) {
	bm, _ := workloads.ByName("gcc")
	for i := 0; i < b.N; i++ {
		lr, err := env.RunLoop(ctx, bm.Name, bm.Loops[0], benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		groups := float64(lr.VectorIters)
		b.ReportMetric(float64(lr.SRVCycles)/groups, "cycles-per-region")
		b.ReportMetric(float64(lr.BarrierFrac*100), "barrier-%")
	}
}
