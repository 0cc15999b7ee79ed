package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"srvsim/internal/compiler"
	"srvsim/internal/isa"
	"srvsim/internal/pipeline"
	"srvsim/internal/power"
	"srvsim/internal/stats"
	"srvsim/internal/workloads"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Body  string
}

func (r Report) String() string {
	bar := strings.Repeat("=", len(r.Title)+len(r.ID)+3)
	return fmt.Sprintf("%s\n%s — %s\n%s\n%s\n", bar, r.ID, r.Title, bar, r.Body)
}

// Results bundles the per-benchmark measurements shared by several figures.
type Results struct {
	Bench []BenchResult
}

// Failures flattens every benchmark's contained failures, in benchmark and
// loop order (deterministic regardless of worker scheduling).
func (rs Results) Failures() []*SimError {
	var all []*SimError
	for _, br := range rs.Bench {
		all = append(all, br.Failures...)
	}
	return all
}

// Measure runs every benchmark's scalar and SRV variants once. Benchmarks
// fan out across the worker pool; the result order is the workload order
// regardless of completion order.
func (e *Env) Measure(ctx context.Context, seed int64) (Results, error) {
	var rs Results
	all := workloads.All()
	rs.Bench = make([]BenchResult, len(all))
	err := e.parMap(len(all), func(i int) error {
		br, err := e.RunBenchmark(ctx, all[i], seed)
		if err != nil {
			return err
		}
		rs.Bench[i] = br
		return nil
	})
	if err != nil {
		return Results{}, err
	}
	return rs, nil
}

// Table1 prints the simulated core configuration (paper Table I).
func Table1() Report {
	c := pipeline.DefaultConfig()
	t := stats.NewTable("Parameter", "Configuration")
	t.Row("Core", "Out-of-order, 3GHz (cycle-level model)")
	t.Row("Pipeline", fmt.Sprintf("Fetch / decode / issue width: %d", c.Width))
	t.Row("LSU", fmt.Sprintf("%d-entry", c.LSQSize))
	t.Row("IQ", fmt.Sprintf("%d-entry", c.IQSize))
	t.Row("ROB", fmt.Sprintf("%d-entry", c.ROBSize))
	t.Row("Vector length", fmt.Sprintf("%d elements (element-size agnostic)", isa.NumLanes))
	t.Row("Vec-op / cycle", fmt.Sprintf("Non-mem: %d integers, %d others; Mem: %d loads, %d store",
		c.VecIntPerCycle, c.VecOtherPerCycle, c.LoadPorts, c.StorePorts))
	t.Row("SAQ CAM ports", fmt.Sprintf("%d (scatter elements per cycle)", c.StoreElemPerCycle))
	t.Row("Branch pred", "64-entry local, 1024-entry global, 128-entry BTB, 1024-entry chooser, 8-entry RAS")
	t.Row("L1 cache", "32KiB, 4-way, 2-cycle hit lat")
	t.Row("L2 cache", "1MiB, 16-way, 7-cycle hit lat")
	return Report{ID: "Table I", Title: "Core and memory experimental setup", Body: t.String()}
}

// Fig6 reports per-loop SRV speedup over scalar execution plus the coverage
// of SRV-vectorisable loops in dynamic instructions.
func Fig6(rs Results) Report {
	t := stats.NewTable("benchmark", "suite", "loop speedup", "coverage %")
	var sps []float64
	for _, br := range rs.Bench {
		t.Row(br.Bench.Name, br.Bench.Suite, br.Speedup, br.Bench.Coverage*100)
		sps = append(sps, br.Speedup)
	}
	t.Row("average", "", stats.Mean(sps), "")
	t.Row("max", "", stats.Max(sps), "")
	body := t.String() + "\n" + barsFor(rs, func(b BenchResult) float64 { return b.Speedup }, "x")
	return Report{ID: "Fig 6", Title: "Per-loop speedup of SRV-vectorisable loops and their coverage", Body: body}
}

// Fig7 reports whole-program speedups (Amdahl over the coverage).
func Fig7(rs Results) Report {
	t := stats.NewTable("benchmark", "suite", "whole-program speedup")
	var spec, hpc, all []float64
	for _, br := range rs.Bench {
		t.Row(br.Bench.Name, br.Bench.Suite, br.Whole)
		all = append(all, br.Whole)
		if br.Bench.Suite == "SPEC" {
			spec = append(spec, br.Whole)
		} else {
			hpc = append(hpc, br.Whole)
		}
	}
	t.Row("geomean SPEC", "", stats.Geomean(spec))
	t.Row("geomean HPC", "", stats.Geomean(hpc))
	t.Row("geomean all", "", stats.Geomean(all))
	t.Row("max", "", stats.Max(all))
	body := t.String() + "\n" + barsFor(rs, func(b BenchResult) float64 { return b.Whole }, "x")
	return Report{ID: "Fig 7", Title: "Whole-program speedup over vectorised (SVE) baseline", Body: body}
}

// Fig8 reports the execution-barrier cycle fraction.
func Fig8(rs Results) Report {
	t := stats.NewTable("benchmark", "barrier cycles %")
	for _, br := range rs.Bench {
		t.Row(br.Bench.Name, br.Barrier*100)
	}
	body := t.String() + "\n" + barsFor(rs, func(b BenchResult) float64 { return b.Barrier * 100 }, "%")
	return Report{ID: "Fig 8", Title: "Fraction of execution-barrier cycles in SRV-vectorised loops", Body: body}
}

// Fig9 reports memory-dependence violations per static loop instruction and
// the replay overhead, for the benchmarks that incur violations at run time.
func Fig9(rs Results) Report {
	t := stats.NewTable("benchmark", "RAW/static-inst %", "WAR/static-inst %", "WAW/static-inst %", "replay iters %")
	n := 0
	for _, br := range rs.Bench {
		var raw, war, waw, insts, replays, iters int64
		for _, lr := range br.Loops {
			raw += lr.RAW
			war += lr.WAR
			waw += lr.WAW
			insts += int64(lr.StaticInsts)
			replays += lr.ReplayRounds
			iters += lr.VectorIters
		}
		if raw+war+waw == 0 {
			continue
		}
		n++
		t.Row(br.Bench.Name,
			pct(raw, insts), pct(war, insts), pct(waw, insts),
			pct(replays, iters))
	}
	hdr := fmt.Sprintf("%d of %d benchmarks incur violations at run time; the rest have\nstatically-unknown dependences that never materialise.\n\n", n, len(rs.Bench))
	return Report{ID: "Fig 9", Title: "Violations per static loop instruction and re-execution overhead", Body: hdr + t.String()}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// Fig10 reports the distribution of static memory accesses per
// SRV-vectorised loop and the dynamic gather fraction.
func Fig10(rs Results) Report {
	h := stats.NewHistogram()
	var gathers, loads int64
	maxGS := 0
	for _, br := range rs.Bench {
		for _, lr := range br.Loops {
			h.Add(lr.MemAccesses)
			gathers += lr.GatherLoads
			loads += lr.TotalLoads
			if lr.MemAccesses <= 10 && lr.GatherScatter > maxGS {
				maxGS = lr.GatherScatter
			}
		}
	}
	t := stats.NewTable("memory accesses", "loops")
	for _, k := range h.Keys() {
		t.Row(k, h.Count(k))
	}
	body := t.String() + fmt.Sprintf(
		"\nloops with <= 10 accesses: %.0f%% (paper: ~80%%)\n"+
			"max gather/scatter in <=10-access loops: %d (paper: 3)\n"+
			"gathers as fraction of static loads: %.1f%% (paper: 5.8%% of loads)\n",
		h.CumulativeAtMost(10)*100, maxGS, pct(gathers, loads))
	return Report{ID: "Fig 10", Title: "SRV-vectorised loops by number of memory accesses", Body: body}
}

// Fig11 reports address-disambiguation counts under SRV relative to
// sequential execution, split into vertical and horizontal.
func Fig11(rs Results) Report {
	t := stats.NewTable("benchmark", "seq vertical", "srv vertical", "srv horizontal", "SRV/seq ratio")
	for _, br := range rs.Bench {
		var sv, vv, vh int64
		for _, lr := range br.Loops {
			sv += lr.SeqVertDisamb
			vv += lr.SRVVertDisamb
			vh += lr.SRVHorizDisamb
		}
		ratio := 0.0
		if sv > 0 {
			ratio = float64(vv+vh) / float64(sv)
		}
		t.Row(br.Bench.Name, sv, vv, vh, ratio)
	}
	return Report{ID: "Fig 11", Title: "Address disambiguations: SRV vs sequential execution", Body: t.String()}
}

// Fig12 reports the dynamic-power change from the extra CAM lookups.
func Fig12(rs Results) Report {
	m := power.Default()
	ms := power.WithShifts()
	t := stats.NewTable("benchmark", "CAM/cyc seq", "CAM/cyc srv", "delta %", "delta+shifts %")
	for _, br := range rs.Bench {
		var seq, srv power.Sample
		for _, lr := range br.Loops {
			seq.CAMLookups += lr.SeqCam.CAMLookups
			seq.Cycles += lr.SeqCam.Cycles
			srv.CAMLookups += lr.SRVCam.CAMLookups
			srv.HorizShifts += lr.SRVCam.HorizShifts
			srv.Cycles += lr.SRVCam.Cycles
		}
		t.Row(br.Bench.Name, seq.Rate(), srv.Rate(), m.DeltaPercent(srv, seq), ms.DeltaPercent(srv, seq))
	}
	body := t.String() + "\n(the +shifts column extends the paper's McPAT model with the horizontal\nbit-vector shift energy §VI-C notes as unmodelled.)\n"
	return Report{ID: "Fig 12", Title: "Dynamic core-power change introduced by SRV (LSU = 11% of core power)", Body: body}
}

// Fig13 reports SRV dynamic instruction counts relative to FlexVec.
func (e *Env) Fig13(ctx context.Context, seed int64) (Report, error) {
	t := stats.NewTable("benchmark", "SRV insts", "FlexVec insts", "SRV/FlexVec", "FlexVec subgroups/group")
	var ratios []float64
	for _, b := range workloads.All() {
		agg, ratio, err := e.RunFlexVec(ctx, b, seed)
		if err != nil {
			return Report{}, err
		}
		sub := 0.0
		if agg.Groups > 0 {
			sub = float64(agg.Subgroups) / float64(agg.Groups)
		}
		t.Row(b.Name, agg.SRVInsts, agg.FlexVecInsts, ratio, sub)
		ratios = append(ratios, ratio)
	}
	t.Row("mean", "", "", stats.Mean(ratios), "")
	body := t.String() + "\n(SRV needs fewer instructions because it performs no explicit run-time checks;\npaper: < 60% of FlexVec for most benchmarks.)\n"
	return Report{ID: "Fig 13", Title: "Dynamic instruction count: SRV vs FlexVec", Body: body}, nil
}

// LimitStudy reports the §II motivation numbers.
func (e *Env) LimitStudy(ctx context.Context, seed int64) (Report, error) {
	t := stats.NewTable("benchmark", "potential (all inner loops)", "potential (safe only)", "unknown-dep frac of unvectorised")
	var all, safe, unk []float64
	for _, b := range workloads.All() {
		s, err := e.RunLimit(ctx, b, seed)
		if err != nil {
			return Report{}, err
		}
		t.Row(b.Name, s.PotentialAll, s.PotentialSafeOnly, s.UnknownFrac)
		all = append(all, s.PotentialAll)
		safe = append(safe, s.PotentialSafeOnly)
		unk = append(unk, s.UnknownFrac)
	}
	t.Row("average", stats.Mean(all), stats.Mean(safe), stats.Mean(unk))
	body := t.String() + "\n(paper: 2.1x potential, 1.02x without unknown-dependence loops,\n>70% of unvectorised inner loops blocked by unknown dependences.)\n"
	return Report{ID: "§II", Title: "Vectorisation limit study", Body: body}, nil
}

// CostModelReport compares the compiler's static profitability estimate
// against the measured per-loop speedup — the decision quality of the
// "better assess the profitability of vectorising" use the paper's
// introduction motivates. The decision column applies the compiler's
// threshold to the estimate and 1.0x to the measurement.
func CostModelReport(rs Results) Report {
	cm := compiler.DefaultCostModel()
	t := stats.NewTable("benchmark", "loop", "estimated", "measured", "est/meas", "decision")
	var ratios []float64
	agree, total := 0, 0
	for _, br := range rs.Bench {
		// Failed loops are absent from br.Loops, so pair results with their
		// specs by name rather than by position.
		specs := make(map[string]workloads.LoopSpec, len(br.Bench.Loops))
		for _, ls := range br.Bench.Loops {
			specs[ls.Shape.Name] = ls
		}
		for _, lr := range br.Loops {
			loop := specs[lr.Loop].Shape.Build()
			est := cm.Estimate(loop)
			ratio := est / lr.Speedup
			ratios = append(ratios, ratio)
			ok := cm.Profitable(loop) == (lr.Speedup >= 1.0)
			total++
			verdict := "wrong"
			if ok {
				agree++
				verdict = "ok"
			}
			t.Row(br.Bench.Name, lr.Loop, est, lr.Speedup, ratio, verdict)
		}
	}
	t.Row("", "", "", "", stats.Mean(ratios), fmt.Sprintf("%d/%d", agree, total))
	body := t.String() + "\n(a ratio near 1.0 means the static model predicts the cycle simulator;\nthe decision column checks vectorise/skip agreement.)\n"
	return Report{ID: "CostModel", Title: "Static profitability estimate vs measured speedup", Body: body}
}

// RegionProfile reports the SRV region-duration distribution per loop: how
// long a region occupies the LSU's speculative window, and how much of that
// is replay. Long regions bound the interrupt-response cost of §III-D2 and
// size the LSU pressure, so the profile complements Fig 8/9.
func RegionProfile(rs Results) Report {
	t := stats.NewTable("benchmark", "loop", "regions", "mean dur (cyc)", "max dur", "replays/region", "LSU high-water")
	for _, br := range rs.Bench {
		for _, lr := range br.Loops {
			rpr := 0.0
			if lr.Regions > 0 {
				rpr = float64(lr.ReplayRounds) / float64(lr.Regions)
			}
			t.Row(br.Bench.Name, lr.Loop, lr.Regions, lr.RegionDurMean, lr.RegionDurMax, rpr, lr.LSUHighWater)
		}
	}
	body := t.String() + "\n(duration = srv_start execution to region commit, replays included;\nthe mean bounds the §III-D2 interrupt-response latency of a region.\nLSU high-water = peak live entries out of 64 — fallback headroom, §III-D7.)\n"
	return Report{ID: "RegionProfile", Title: "SRV region duration distribution", Body: body}
}

// Sweep reports SRV's sensitivity to the core's structural parameters:
// issue width, IQ size and LSQ size are varied one at a time around the
// Table I configuration on a representative loop. The IQ column explains
// the paper's speedup source (scalar code starves in a small window; the
// vector code does not), the LSQ column the §III-D7 fallback cliff.
func (e *Env) Sweep(ctx context.Context, seed int64) (Report, error) {
	bm, ok := workloads.ByName("is")
	if !ok {
		return Report{}, fmt.Errorf("harness: benchmark is not defined")
	}
	ls := bm.Loops[0]
	t := stats.NewTable("parameter", "value", "scalar cycles", "SRV cycles", "speedup", "fallbacks")
	row := func(param string, value int, mutate func(*pipeline.Config)) error {
		cfg := cfg()
		mutate(&cfg)
		lr, err := e.RunLoop(ctx, bm.Name, ls, seed, WithConfig(cfg))
		if err != nil {
			return fmt.Errorf("%s=%d: %w", param, value, err)
		}
		t.Row(param, value, lr.ScalarCycles, lr.SRVCycles, lr.Speedup, lr.Fallbacks)
		return nil
	}
	for _, w := range []int{4, 8, 16} {
		if err := row("width", w, func(c *pipeline.Config) { c.Width = w }); err != nil {
			return Report{}, err
		}
	}
	for _, iq := range []int{16, 32, 64, 128} {
		if err := row("IQ", iq, func(c *pipeline.Config) { c.IQSize = iq }); err != nil {
			return Report{}, err
		}
	}
	for _, lsq := range []int{24, 48, 64, 128} {
		if err := row("LSQ", lsq, func(c *pipeline.Config) { c.LSQSize = lsq }); err != nil {
			return Report{}, err
		}
	}
	body := t.String() + "\n(one parameter varied at a time around Table I on is.rank; the\nfallback column counts extra sequential passes after LSU overflow.)\n"
	return Report{ID: "Sweep", Title: "Structural sensitivity of the SRV speedup", Body: body}, nil
}

// FailureSummary tabulates every contained failure: kind, attribution and
// where its crash artifact (if any) was written. Rendered at the end of a
// degraded run so partial results are never mistaken for a clean evaluation.
func FailureSummary(fails []*SimError) Report {
	t := stats.NewTable("benchmark", "loop", "variant", "kind", "cycle", "artifact", "detail")
	for _, se := range fails {
		cyc := ""
		if se.Cycle > 0 {
			cyc = fmt.Sprint(se.Cycle)
		}
		msg := se.Msg
		if len(msg) > 60 {
			msg = msg[:57] + "..."
		}
		t.Row(se.Bench, se.Loop, se.Variant, se.Kind.String(), cyc, se.Artifact, msg)
	}
	body := t.String() + fmt.Sprintf(
		"\n%d simulation(s) failed; their loops are excluded from the aggregates\nabove. Replay an artifact with: srvsim -repro <file>\n", len(fails))
	return Report{ID: "Failures", Title: "Contained simulation failures", Body: body}
}

func barsFor(rs Results, f func(BenchResult) float64, unit string) string {
	labels := make([]string, len(rs.Bench))
	vals := make([]float64, len(rs.Bench))
	for i, br := range rs.Bench {
		labels[i] = br.Bench.Name
		vals[i] = f(br)
	}
	return stats.Bars(labels, vals, unit)
}

// RunAll regenerates every table and figure, writing them to w.
func (e *Env) RunAll(ctx context.Context, seed int64, w io.Writer) error {
	fmt.Fprint(w, Table1())
	limit, err := e.LimitStudy(ctx, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, limit)
	rs, err := e.Measure(ctx, seed)
	if err != nil {
		return err
	}
	for _, rep := range []Report{Fig6(rs), Fig7(rs), Fig8(rs), Fig9(rs), Fig10(rs), Fig11(rs), Fig12(rs), CostModelReport(rs), RegionProfile(rs)} {
		fmt.Fprint(w, rep)
	}
	f13, err := e.Fig13(ctx, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, f13)
	sweep, err := e.Sweep(ctx, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sweep)
	if fails := rs.Failures(); len(fails) > 0 {
		fmt.Fprint(w, FailureSummary(fails))
		return &FleetError{Failures: fails}
	}
	return nil
}
