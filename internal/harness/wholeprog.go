package harness

import (
	"context"
	"fmt"
	"math/rand"

	"srvsim/internal/compiler"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// WholeProgramResult compares the paper's coverage-based whole-program
// estimate (Fig 7's methodology) against a direct simulation of a synthetic
// application: scalar phases interleaved with the benchmark's SRV loop so
// that the loop's dynamic instructions make up approximately the
// benchmark's published coverage.
type WholeProgramResult struct {
	Bench        string
	Coverage     float64 // target coverage (dynamic instructions)
	RealCoverage float64 // achieved instruction coverage in the application
	Direct       float64 // measured: scalar-app cycles / SRV-app cycles
	AmdahlInst   float64 // paper's method: instruction coverage + loop speedup
	AmdahlCycle  float64 // cycle-attributed estimate (tighter)
}

// scalarFiller builds a provably safe loop representing the application's
// non-SRV-vectorisable work: it stays scalar in both variants.
func scalarFiller(trip int) *compiler.Loop {
	a := &compiler.Array{Name: "fa", Elem: 4, Len: trip}
	b := &compiler.Array{Name: "fb", Elem: 4, Len: trip}
	return &compiler.Loop{
		Name: "filler",
		Trip: trip,
		Body: []compiler.Stmt{{
			Dst: b, Idx: compiler.Affine(1, 0),
			Val: compiler.Bin{Op: compiler.OpMulAdd,
				L: compiler.Ref{Arr: a, Idx: compiler.Affine(1, 0)},
				R: compiler.Const{V: 3},
				C: compiler.Ref{Arr: b, Idx: compiler.Affine(1, 0)}},
		}},
	}
}

// scalarIterLen returns the scalar-codegen instruction count of one loop
// iteration (backward-branch span).
func scalarIterLen(l *compiler.Loop) (int, error) {
	im := mem.NewImage()
	c, err := compiler.Compile(l, im, compiler.ModeScalar)
	if err != nil {
		return 0, err
	}
	prog := c.Prog
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		if in.IsBranch() && in.Tgt < pc {
			return pc - in.Tgt + 1, nil
		}
	}
	return prog.Len(), nil
}

// RunWholeProgram builds and measures the synthetic application for one
// benchmark, using its first (heaviest) SRV loop.
func (e *Env) RunWholeProgram(ctx context.Context, b workloads.Benchmark, seed int64) (WholeProgramResult, error) {
	res := WholeProgramResult{Bench: b.Name, Coverage: b.Coverage}
	ls := b.Loops[0]
	// A reduced trip count keeps the synthetic application tractable; the
	// loop's per-iteration behaviour (and thus its speedup) is unchanged.
	if ls.Shape.Trip > 2048 {
		ls.Shape.Trip = 2048
		if ls.Shape.Range > 1<<14 {
			ls.Shape.Range = 1 << 14
		}
	}

	// Instruction accounting to size the filler: two filler phases bracket
	// the SRV loop, together carrying (1-coverage) of the instructions.
	probe := ls.Shape.Build()
	loopIterLen, err := scalarIterLen(probe)
	if err != nil {
		return res, err
	}
	fillerProbe := scalarFiller(64)
	fillerIterLen, err := scalarIterLen(fillerProbe)
	if err != nil {
		return res, err
	}
	loopInsts := float64(loopIterLen * probe.Trip)
	fillerIters := int(loopInsts * (1 - b.Coverage) / b.Coverage / float64(fillerIterLen) / 2)
	if fillerIters < 16 {
		fillerIters = 16
	}
	fillerInsts := float64(2 * fillerIters * fillerIterLen)
	res.RealCoverage = loopInsts / (loopInsts + fillerInsts)

	build := func(mode compiler.Mode) (*pipeline.Pipeline, error) {
		loop := ls.Shape.Build()
		im := mem.NewImage()
		ls.Shape.Seed(loop, im, rand.New(rand.NewSource(seed)))
		f1 := scalarFiller(fillerIters)
		f1.Bind(im)
		for i := 0; i < fillerIters; i++ {
			im.WriteInt(f1.Arrays()[0].Addr(int64(i)), 4, int64(i%97))
		}
		f2 := &compiler.Loop{Name: "filler2", Trip: f1.Trip, Body: f1.Body}
		prog, err := compiler.CompileProgram([]compiler.Phase{
			{Loop: f1, Mode: compiler.ModeScalar},
			{Loop: loop, Mode: mode},
			{Loop: f2, Mode: compiler.ModeScalar},
		}, im)
		if err != nil {
			return nil, err
		}
		p := pipeline.New(cfg(), prog, im)
		warm(p, loop.Arrays())
		warm(p, f1.Arrays())
		if err := p.RunContext(ctx); err != nil {
			return nil, err
		}
		return p, nil
	}

	sp, err := build(compiler.ModeScalar)
	if err != nil {
		return res, fmt.Errorf("whole-program scalar: %w", err)
	}
	vp, err := build(compiler.ModeSRV)
	if err != nil {
		return res, fmt.Errorf("whole-program srv: %w", err)
	}
	res.Direct = float64(sp.Stats.Cycles) / float64(vp.Stats.Cycles)

	// Estimates from the isolated loop measurement.
	lr, err := e.RunLoop(ctx, b.Name, ls, seed)
	if err != nil {
		return res, err
	}
	// Paper's Fig 7 method: instruction coverage + loop speedup.
	res.AmdahlInst = 1 / (1 - res.RealCoverage + res.RealCoverage/lr.Speedup)
	// Cycle-attributed estimate: the loop's share of the scalar app's time.
	cycleCov := float64(lr.ScalarCycles) / float64(sp.Stats.Cycles)
	if cycleCov > 1 {
		cycleCov = 1
	}
	res.AmdahlCycle = 1 / (1 - cycleCov + cycleCov/lr.Speedup)
	return res, nil
}
