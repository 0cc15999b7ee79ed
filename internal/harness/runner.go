// Package harness runs the paper's experiments: it compiles each workload
// loop in scalar and SRV form, measures both on the cycle simulator,
// cross-checks final memory against the IR reference evaluator, and
// aggregates the per-figure metrics (Figs 6-13 and the §II limit study).
package harness

import (
	"context"
	"sync/atomic"
	"time"

	"srvsim/internal/compiler"
	"srvsim/internal/flexvec"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
	"srvsim/internal/power"
	"srvsim/internal/trace"
	"srvsim/internal/workloads"
)

// LoopResult holds one loop's measurements under scalar and SRV execution.
type LoopResult struct {
	Bench string
	Loop  string

	ScalarCycles int64
	SRVCycles    int64
	Speedup      float64
	Estimated    float64 // static cost-model prediction of Speedup

	BarrierFrac   float64 // barrier stall cycles / total SRV cycles (Fig 8)
	VectorIters   int64
	ReplayRounds  int64
	ReplayLanes   int64
	Fallbacks     int64
	RAW, WAR, WAW int64
	StaticInsts   int // static instructions in the loop body (vector form)
	MemAccesses   int // static memory accesses (Fig 10)
	GatherScatter int // of which lane-indexed

	// Address disambiguations (Fig 11) and CAM lookups (Fig 12).
	SRVVertDisamb  int64
	SRVHorizDisamb int64
	SeqVertDisamb  int64
	SRVCam, SeqCam power.Sample

	// Dynamic gather-element loads vs total loads (paper: 5.8% of loads are
	// gathers).
	GatherLoads int64
	TotalLoads  int64

	// Region-duration profile (cycles from srv_start execution to region
	// commit, replay rounds included).
	Regions       int64
	RegionDurMean float64
	RegionDurMax  int64
	LSUHighWater  int // peak live LSU entries (fallback headroom, §III-D7)
}

// cfg returns the Table I pipeline configuration with a test-sized budget.
func cfg() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = defaultMaxCycles
	return c
}

// defaultMaxCycles is the harness's cycle budget per simulation.
const defaultMaxCycles = 500_000_000

// warm pre-touches every line of a loop's arrays through the cache
// hierarchy, modelling the steady state of a loop whose working set was
// recently used by earlier program phases (the paper measures loop
// invocations inside running applications, not cold starts).
func warm(p *pipeline.Pipeline, arrays []*compiler.Array) {
	for _, a := range arrays {
		end := a.Base + uint64(a.Elem*a.Len)
		for line := a.Base &^ 63; line < end; line += 64 {
			p.Hier.Latency(line)
		}
	}
}

// prepare arms a freshly-built pipeline for measurement: cache warm-up and —
// on diagnostic re-runs — per-cycle invariant checking plus the pipeview
// timeline, so a reproduced failure comes back with forensics attached.
// (The per-simulation wall-clock bound is a context deadline; see
// simContext.)
func (e *Env) prepare(p *pipeline.Pipeline, arrays []*compiler.Array, diag bool) {
	warm(p, arrays)
	if e.RefTickCore {
		p.UseReferenceTickCore()
	}
	if diag {
		p.EnableParanoid()
		p.EnableTimeline()
	}
}

// simContext derives the context one simulation variant runs under: the
// caller's context, bounded by the Env's per-simulation wall-clock budget
// (SimTimeout) when one is set. The deadline starts when the variant
// starts.
func (e *Env) simContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.SimTimeout > 0 {
		return context.WithTimeout(ctx, e.SimTimeout)
	}
	return ctx, func() {}
}

// RunLoop measures one workload loop. Both variants run on identical input
// data; their final memory is verified against the reference evaluator.
// Options customise the run (e.g. WithConfig for ablations), and
// cancelling ctx aborts both variants cooperatively. Like every public Run*
// helper it is a thin wrapper over Run, the harness's single execution path.
func (e *Env) RunLoop(ctx context.Context, bench string, ls workloads.LoopSpec, seed int64, opts ...Option) (LoopResult, error) {
	req := Request{Mode: ModeLoop, Bench: bench, Loop: &ls, Seed: seed}
	for _, o := range opts {
		o(&req)
	}
	res, err := e.Run(ctx, req)
	if err != nil {
		return LoopResult{Bench: bench, Loop: ls.Shape.Name}, err
	}
	return *res.Loop, nil
}

// ratio returns a/b, or 0 when b is 0, so that a degenerate run (e.g. a
// zero-cycle loop under an ablated configuration) yields 0 instead of a NaN
// that would silently poison the Fig 6/8 weighted aggregates.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLoop measures one loop's scalar and SRV variants. Each variant runs
// under an attributed recover boundary, so a panic, deadlock, budget blowout
// or divergence in one simulation surfaces as a *SimError naming the exact
// (benchmark, loop, variant, seed) that produced it. diag re-runs a failed
// simulation with invariant checking and the pipeview timeline enabled.
func (e *Env) runLoop(ctx context.Context, pcfg pipeline.Config, bench string, ls workloads.LoopSpec, seed int64, diag bool) (LoopResult, error) {
	res := LoopResult{Bench: bench, Loop: ls.Shape.Name}

	// One instantiation serves the reference and both variants: the
	// reference and the scalar variant each run on a clone of its image,
	// the SRV variant on the image itself, and all three share the loop,
	// which none of them writes to (TestCompileLeavesLoopUnchanged).
	a := attribution{bench: bench, loop: ls.Shape.Name, variant: "reference", seed: seed}
	l, vim, refIm, err := instantiate(a, ls, seed)
	if err != nil {
		return res, err
	}
	arrays := l.Arrays()

	// Both variants take the same step (compile, build, warm, simulate,
	// verify against the reference); each keeps only its mode, its image
	// and the result fields it records.
	type variant struct {
		mode   compiler.Mode
		im     *mem.Image
		record func(c *compiler.Compiled, p *pipeline.Pipeline)
	}
	variants := []variant{
		{compiler.ModeScalar, vim.Clone(), func(_ *compiler.Compiled, sp *pipeline.Pipeline) {
			res.ScalarCycles = sp.Stats.Cycles
			res.SeqVertDisamb = sp.LSU.Stats.VertDisamb
			res.SeqCam = power.Sample{CAMLookups: sp.LSU.Stats.CAMLookups, Cycles: sp.Stats.Cycles}
		}},
		{compiler.ModeSRV, vim, func(vc *compiler.Compiled, vp *pipeline.Pipeline) {
			res.SRVCycles = vp.Stats.Cycles
			res.BarrierFrac = ratio(float64(vp.Stats.BarrierCycles), float64(vp.Stats.Cycles))
			res.VectorIters = vp.Ctrl.Stats.VectorIters
			res.ReplayRounds = vp.Ctrl.Stats.Replays
			res.ReplayLanes = vp.Ctrl.Stats.ReplayLanes
			res.Fallbacks = vp.Ctrl.Stats.Fallbacks
			res.RAW = vp.Ctrl.Stats.RAWViol
			res.WAR = vp.Ctrl.Stats.WARViol
			res.WAW = vp.Ctrl.Stats.WAWViol
			res.SRVVertDisamb = vp.LSU.Stats.VertDisamb
			res.SRVHorizDisamb = vp.LSU.Stats.HorizDisamb
			res.SRVCam = power.Sample{CAMLookups: vp.LSU.Stats.CAMLookups,
				HorizShifts: vp.LSU.Stats.HorizDisamb, Cycles: vp.Stats.Cycles}
			res.StaticInsts = vc.Prog.Len()
			res.Estimated = compiler.DefaultCostModel().Estimate(l)
			res.Regions = vp.Ctrl.Stats.Regions
			res.LSUHighWater = vp.LSU.Stats.MaxOccupancy
			if durs := vp.RegionDurations(); len(durs) > 0 {
				sum := int64(0)
				for _, d := range durs {
					sum += d
					if d > res.RegionDurMax {
						res.RegionDurMax = d
					}
				}
				res.RegionDurMean = float64(sum) / float64(len(durs))
			}
			res.MemAccesses, res.GatherScatter = l.MemAccessCount()
			res.GatherLoads, res.TotalLoads = countLoads(l)
		}},
	}
	// The two variants write disjoint LoopResult fields, so running them
	// concurrently needs no locking. Chaos injection (when armed) happens
	// inside the guard so injected faults exercise the same containment path
	// as real ones; diagnostic re-runs are exempt, so an injected fault is
	// correctly diagnosed as not-reproducible.
	err = e.parMap(len(variants), func(i int) error {
		v := variants[i]
		a := attribution{bench: bench, loop: ls.Shape.Name, variant: v.mode.String(), seed: seed}
		t0 := time.Now()
		verr := a.guard(func() error {
			if !diag {
				if err := e.chaosInject(a); err != nil {
					return err
				}
			}
			c, err := compiler.Compile(l, v.im, v.mode)
			if err != nil {
				return a.simErr(KindCompileError, "%v", err)
			}
			p := pipeline.New(pcfg, c.Prog, v.im)
			e.prepare(p, arrays, diag)
			if err := armCheckpoints(ctx, p, a); err != nil {
				return err
			}
			sctx, cancel := e.simContext(ctx)
			defer cancel()
			if err := p.RunContext(sctx); err != nil {
				return err
			}
			if addr, diff := v.im.FirstDiff(refIm); diff {
				return a.simErr(KindDivergence, "%v result diverges from the reference at %#x", v.mode, addr)
			}
			v.record(c, p)
			return nil
		})
		if !diag {
			// Leaf-level fleet accounting: diagnostic re-runs are forensics,
			// not fleet throughput.
			e.fleetRecord(a, t0, verr)
		}
		return verr
	})
	if err != nil {
		return res, err
	}
	res.Speedup = ratio(float64(res.ScalarCycles), float64(res.SRVCycles))
	return res, nil
}

// instantiate builds and seeds the loop and evaluates the reference result
// on a clone of its image. A malformed spec can panic while building or
// seeding, so all of it runs under a's guard.
func instantiate(a attribution, ls workloads.LoopSpec, seed int64) (l *compiler.Loop, im, ref *mem.Image, err error) {
	err = a.guard(func() error {
		l, im = ls.Instantiate(seed)
		ref = im.Clone()
		compiler.Eval(l, ref)
		return nil
	})
	return l, im, ref, err
}

// countLoads counts the loop's loads, and of them the gathers (loads through
// an indirect subscript), in one walk of its accesses.
func countLoads(l *compiler.Loop) (gathers, total int64) {
	for _, a := range l.AccessSummaries() {
		if !a.IsStore {
			total++
			if a.Unknown {
				gathers++
			}
		}
	}
	return gathers, total
}

// BenchResult aggregates a benchmark's loops. Failed loops are excluded
// from Loops and the aggregates, and reported in Failures instead: one bad
// simulation degrades the benchmark's coverage, not the whole run.
type BenchResult struct {
	Bench   workloads.Benchmark
	Loops   []LoopResult
	Speedup float64 // weighted per-loop speedup (Fig 6)
	Whole   float64 // whole-program speedup via coverage (Fig 7)
	Barrier float64 // weighted barrier fraction (Fig 8)

	Failures []*SimError // contained per-loop failures, in loop order
}

// RunBenchmark measures all SRV loops of a benchmark. The loops fan out
// across the worker pool; aggregation happens in loop order afterwards, so
// the result is identical to a serial run. A failing loop is contained: it
// lands in BenchResult.Failures (after an automatic diagnostic re-run when
// the Env has a CrashDir) and the remaining loops still aggregate.
// Env.FailFast restores abort-on-first-error. The request routes through
// Run (and therefore through the Env's Executor), with the benchmark spec
// inlined so custom benchmarks work unregistered.
func (e *Env) RunBenchmark(ctx context.Context, b workloads.Benchmark, seed int64, opts ...Option) (BenchResult, error) {
	req := Request{Mode: ModeBenchmark, Bench: b.Name, BenchSpec: &b, Seed: seed}
	for _, o := range opts {
		o(&req)
	}
	res, err := e.Run(ctx, req)
	if err != nil {
		return BenchResult{Bench: b}, err
	}
	return res.benchResult(b)
}

// runBenchmark is the local benchmark fan-out behind Run's ModeBenchmark.
func (e *Env) runBenchmark(ctx context.Context, b workloads.Benchmark, pcfg pipeline.Config, seed int64) (BenchResult, error) {
	out := BenchResult{Bench: b}
	loops := make([]LoopResult, len(b.Loops))
	fails := make([]*SimError, len(b.Loops))
	total := len(b.Loops)
	var done atomic.Int64
	err := e.parMap(len(b.Loops), func(i int) error {
		lr, err := e.runLoop(ctx, pcfg, b.Name, b.Loops[i], seed+int64(i), false)
		notifyProgress(ctx, "loop", int(done.Add(1)), total)
		if err != nil {
			// A cancelled parent context is fatal, never a containable
			// per-loop failure: a timed-out job must not masquerade as a
			// (cacheable) partial result.
			if e.FailFast || ctx.Err() != nil {
				return err
			}
			fails[i] = AsSimError(err)
			return nil
		}
		loops[i] = lr
		return nil
	})
	if err != nil {
		return out, err
	}
	// Forensics after the fan-out, serially and in loop order: one failure's
	// diagnostic re-run never races another's, and reporting stays
	// deterministic regardless of worker scheduling.
	for i, se := range fails {
		if se != nil {
			e.diagnose(se, pcfg, b.Name, b.Loops[i], seed+int64(i))
			out.Failures = append(out.Failures, se)
		}
	}
	wsum := 0.0
	harm := 0.0
	for i, lr := range loops {
		if fails[i] != nil {
			continue
		}
		out.Loops = append(out.Loops, lr)
		ls := b.Loops[i]
		wsum += ls.Weight
		if lr.Speedup > 0 {
			harm += ls.Weight / lr.Speedup
		}
		out.Barrier += ls.Weight * lr.BarrierFrac
	}
	if wsum > 0 && harm > 0 {
		// Weighted harmonic mean: the loops' combined speedup over the
		// benchmark's SRV-covered instructions.
		out.Speedup = wsum / harm
		out.Barrier /= wsum
	}
	if out.Speedup > 0 {
		out.Whole = 1 / (1 - b.Coverage + b.Coverage/out.Speedup)
	}
	return out, nil
}

// RunFlexVec runs the Fig 13 comparison for a benchmark (weighted over its
// loops, which fan out across the worker pool), routed through Run.
func (e *Env) RunFlexVec(ctx context.Context, b workloads.Benchmark, seed int64) (flexvec.Result, float64, error) {
	res, err := e.Run(ctx, Request{Mode: ModeFlexVec, Bench: b.Name, BenchSpec: &b, Seed: seed})
	if err != nil {
		return flexvec.Result{}, 0, err
	}
	if res.FlexVec == nil {
		return flexvec.Result{}, 0, errNoPayload(res.Mode, "flexvec")
	}
	return res.FlexVec.Aggregate, res.FlexVec.WeightedRatio, nil
}

// runFlexVec is the local FlexVec comparison behind Run's ModeFlexVec.
func (e *Env) runFlexVec(ctx context.Context, b workloads.Benchmark, seed int64) (flexvec.Result, float64, error) {
	var agg flexvec.Result
	results := make([]flexvec.Result, len(b.Loops))
	err := e.parMap(len(b.Loops), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, im := b.Loops[i].Instantiate(seed + int64(i))
		r, err := flexvec.Compare(l, im)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return agg, 0, err
	}
	wsum, ratio := 0.0, 0.0
	for i, r := range results {
		agg.FlexVecInsts += r.FlexVecInsts
		agg.SRVInsts += r.SRVInsts
		agg.CheckInsts += r.CheckInsts
		agg.Groups += r.Groups
		agg.Subgroups += r.Subgroups
		agg.SRVReplays += r.SRVReplays
		wsum += b.Loops[i].Weight
		ratio += b.Loops[i].Weight * r.Ratio()
	}
	if wsum > 0 {
		ratio /= wsum
	}
	return agg, ratio, nil
}

// errNoPayload reports a Result whose mode-specific payload is missing (a
// malformed remote response; impossible for local runs).
func errNoPayload(mode Mode, want string) error {
	return &SimError{Kind: KindRunError, Msg: "result for mode " + string(mode) + " carries no " + want + " payload"}
}

// RunLimit executes the §II limit study for a benchmark, profiling the
// inner loops concurrently and summarising them in order. It routes through
// Run; a profile that panics (a malformed inline spec) surfaces as a
// *SimError, and transport failures surface when the Env has an Executor.
func (e *Env) RunLimit(ctx context.Context, b workloads.Benchmark, seed int64) (trace.Study, error) {
	res, err := e.Run(ctx, Request{Mode: ModeLimit, Bench: b.Name, BenchSpec: &b, Seed: seed})
	if err != nil {
		return trace.Study{}, err
	}
	if res.Limit == nil {
		return trace.Study{}, errNoPayload(res.Mode, "limit")
	}
	return *res.Limit, nil
}

// runLimit is the local limit study behind Run's ModeLimit.
func (e *Env) runLimit(b workloads.Benchmark, seed int64) (trace.Study, error) {
	wls := make([]trace.WeightedLoop, len(b.Limit))
	err := e.parMap(len(b.Limit), func(i int) error {
		ll := b.Limit[i]
		l, im := workloads.LoopSpec{Shape: ll.Shape}.Instantiate(seed + int64(i))
		p := trace.ProfileLoop(l, im)
		if ll.Safe {
			p.Verdict = compiler.VerdictSafe
		}
		wls[i] = trace.WeightedLoop{Profile: p, Weight: ll.Weight}
		return nil
	})
	if err != nil {
		return trace.Study{}, err
	}
	return trace.Summarise(wls), nil
}
