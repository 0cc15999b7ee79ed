package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
)

// Chaos mode: with probability Env.ChaosProb, a simulation is replaced by an
// injected fault — a panic, a genuine pipeline livelock, or a stuck-slow run
// — so the fleet's containment, watchdog and reporting machinery can be
// exercised on demand (srvbench -chaos). The decision is a pure function of
// the simulation's identity and the chaos seed, never of scheduling: the same
// (bench, loop, variant) always draws the same fate, injected faults are
// reproducible, and non-faulted simulations run exactly the code they would
// run with chaos off, so their results stay bit-identical.

const (
	chaosNone = iota
	chaosPanicFault
	chaosLivelockFault
	chaosSlowFault
)

var chaosFaultNames = [...]string{"none", "panic", "livelock", "slow"}

// chaosFaultFor deterministically decides whether the named simulation gets
// an injected fault, and which kind: an FNV-1a hash of the identity and the
// chaos seed supplies both the probability draw and the kind. A probability
// that is not above 0 (NaN included) injects nothing; one above 1 injects
// every time.
func (e *Env) chaosFaultFor(bench, loop, variant string) int {
	if !(e.ChaosProb > 0) {
		return chaosNone
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%s#%d", bench, loop, variant, e.ChaosSeed)
	s := h.Sum64()
	// Top 53 bits → uniform draw in [0, 1); low bits pick the fault kind.
	if float64(s>>11)/float64(1<<53) >= e.ChaosProb {
		return chaosNone
	}
	return chaosPanicFault + int(s%3)
}

// chaosInject runs the injected fault chosen for the attributed simulation,
// if any. Called inside the recover boundary, so an injected panic takes the
// same containment path a real one would.
func (e *Env) chaosInject(a attribution) error {
	fault := e.chaosFaultFor(a.bench, a.loop, a.variant)
	if fault != chaosNone {
		e.fleet.chaosInjected.Add(1)
	}
	switch fault {
	case chaosPanicFault:
		panic(fmt.Errorf("chaos: injected panic in %s/%s/%s", a.bench, a.loop, a.variant))
	case chaosLivelockFault:
		return chaosLivelock()
	case chaosSlowFault:
		return chaosSlow()
	}
	return nil
}

// chaosSpinProg is an infinite dependent-add spin loop: the pipeline keeps
// fetching and executing it until something external stops the run.
func chaosSpinProg() *isa.Program {
	return isa.NewBuilder().
		MovI(1, 0).
		Label("spin").
		AddI(1, 1, 1).
		Jmp("spin").
		MustBuild()
}

// chaosLivelock synthesises a genuine forward-progress failure: a real
// pipeline runs the spin program with commit wedged from cycle 100, and the
// watchdog (here wound down to a 25k-cycle window against a 50M-cycle
// budget) must detect it and return a DeadlockError with a snapshot.
func chaosLivelock() error {
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 50_000_000
	cfg.WatchdogCycles = 25_000
	p := pipeline.New(cfg, chaosSpinProg(), mem.NewImage())
	p.InjectWedge(100)
	return p.Run()
}

var errChaosTimeout = errors.New("chaos: injected wall-clock timeout")

// chaosSlow models a stuck-slow worker: a short real sleep, then a pipeline
// run under a context already cancelled for an exhausted wall-clock budget,
// so it stops at the first poll.
func chaosSlow() error {
	time.Sleep(10 * time.Millisecond)
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 50_000_000
	p := pipeline.New(cfg, chaosSpinProg(), mem.NewImage())
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errChaosTimeout)
	return p.RunContext(ctx)
}
