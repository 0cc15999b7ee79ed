package harness

import (
	"context"
	"fmt"
	"math/rand"

	"srvsim/internal/compiler"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
)

// FuzzTrialResult summarises one passing differential-fuzz trial.
type FuzzTrialResult struct {
	Trip    int
	Down    bool
	Stmts   int
	Verdict compiler.Verdict
	Regions int64
	Replays int64
}

// fuzzTrialSeed derives an independent RNG stream per trial (SplitMix64
// finaliser over the fuzzer seed and trial index), so any single trial can
// be regenerated in isolation: a crash artifact records just (seed, trial).
func fuzzTrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunFuzzTrial runs one differential-fuzzer trial: a random
// unknown-dependence (or, with affine, random affine) loop executed as
// scalar pipeline, SVE pipeline (safe verdicts only), SRV interpreter and
// SRV pipeline, each checked against the sequential reference evaluator.
// Every stage runs under an attributed recover boundary, so compile errors,
// divergences, deadlocks and panics come back as typed *SimErrors naming
// the stage ("srvfuzz"/"trial-N"/stage) instead of killing the process.
// Like every Run* helper it is a thin wrapper over Run.
func (e *Env) RunFuzzTrial(ctx context.Context, seed int64, trial int, affine, interrupts bool) (FuzzTrialResult, error) {
	res, err := e.Run(ctx, Request{Mode: ModeFuzz, Seed: seed, Trial: trial, Affine: affine, Interrupts: interrupts})
	if err != nil {
		return FuzzTrialResult{}, err
	}
	if res.Fuzz == nil {
		return FuzzTrialResult{}, errNoPayload(res.Mode, "fuzz")
	}
	return *res.Fuzz, nil
}

// runFuzzTrial is the local trial execution behind Run's ModeFuzz.
func runFuzzTrial(ctx context.Context, seed int64, trial int, affine, interrupts bool) (FuzzTrialResult, error) {
	var res FuzzTrialResult
	loop := fmt.Sprintf("trial-%d", trial)
	guard := func(stage string, fn func() error) error {
		a := attribution{bench: "srvfuzz", loop: loop, variant: stage, seed: seed}
		return a.guard(fn)
	}
	diverged := func(stage, who string, got, want *mem.Image) error {
		if addr, diff := got.FirstDiff(want); diff {
			a := attribution{bench: "srvfuzz", loop: loop, variant: stage, seed: seed}
			return a.simErr(KindDivergence, "%s diverges from the sequential reference at %#x", who, addr)
		}
		return nil
	}

	rng := rand.New(rand.NewSource(fuzzTrialSeed(seed, trial)))
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 50_000_000

	l := compiler.RandomLoop(rng)
	if affine {
		l = compiler.RandomAffineLoop(rng)
	}
	im := mem.NewImage()
	compiler.SeedRandomLoop(l, im, rng)
	ref := im.Clone()
	compiler.Eval(l, ref)
	verdict := compiler.Analyse(l).Verdict
	res.Trip, res.Down, res.Stmts, res.Verdict = l.Trip, l.Down, len(l.Body), verdict

	// Scalar on the pipeline.
	if err := guard("scalar", func() error {
		imS := im.Clone()
		cs, err := compiler.Compile(l, imS, compiler.ModeScalar)
		if err != nil {
			return attribution{}.simErr(KindCompileError, "scalar compile: %v", err)
		}
		if err := pipeline.New(cfg, cs.Prog, imS).RunContext(ctx); err != nil {
			return err
		}
		return diverged("scalar", "scalar pipeline", imS, ref)
	}); err != nil {
		return res, err
	}

	// Loops the analysis proves safe must also run correctly under plain
	// SVE (verdict soundness).
	if verdict == compiler.VerdictSafe {
		if err := guard("sve", func() error {
			imV := im.Clone()
			cs, err := compiler.Compile(l, imV, compiler.ModeSVE)
			if err != nil {
				return attribution{}.simErr(KindCompileError, "sve compile: %v", err)
			}
			if err := pipeline.New(cfg, cs.Prog, imV).RunContext(ctx); err != nil {
				return err
			}
			return diverged("sve", "SVE pipeline", imV, ref)
		}); err != nil {
			return res, err
		}
	}

	if verdict != compiler.VerdictDependent {
		// SRV on the interpreter.
		var cv *compiler.Compiled
		if err := guard("srv-interp", func() error {
			imI := im.Clone()
			c, err := compiler.Compile(l, imI, compiler.ModeSRV)
			if err != nil {
				return attribution{}.simErr(KindCompileError, "srv compile: %v", err)
			}
			cv = c
			if err := isa.NewInterp(cv.Prog, imI).Run(200_000_000); err != nil {
				return err
			}
			return diverged("srv-interp", "SRV interpreter", imI, ref)
		}); err != nil {
			return res, err
		}

		// SRV on the pipeline, optionally with an interrupt.
		if err := guard("srv-pipeline", func() error {
			imP := im.Clone()
			c, err := compiler.Compile(l, imP, compiler.ModeSRV)
			if err != nil {
				return attribution{}.simErr(KindCompileError, "srv compile: %v", err)
			}
			pv := pipeline.New(cfg, c.Prog, imP)
			if interrupts {
				pv.ScheduleInterrupt(int64(10+rng.Intn(400)), int64(20+rng.Intn(60)))
			}
			if err := pv.RunContext(ctx); err != nil {
				return err
			}
			if err := diverged("srv-pipeline", "SRV pipeline", imP, ref); err != nil {
				return err
			}
			res.Replays = pv.Ctrl.Stats.Replays
			res.Regions = pv.Ctrl.Stats.Regions
			return nil
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}
