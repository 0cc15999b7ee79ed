package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// spinProg is an infinite dependent-add loop: it commits an instruction
// stream forever, so it exhausts the cycle budget without ever wedging.
func spinProg() *isa.Program {
	return isa.NewBuilder().
		MovI(1, 0).
		Label("spin").
		AddI(1, 1, 1).
		Jmp("spin").
		MustBuild()
}

func TestCycleBudgetErrorIsTyped(t *testing.T) {
	c := testConfig()
	c.MaxCycles = 5_000
	c.WatchdogCycles = -1 // isolate the budget path from the watchdog
	p := New(c, spinProg(), mem.NewImage())
	err := p.Run()
	if err == nil {
		t.Fatal("infinite loop finished under a 5k-cycle budget")
	}
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("budget error not errors.Is(ErrCycleBudget): %v", err)
	}
	if p.Stats.Cycles != c.MaxCycles {
		t.Errorf("Stats.Cycles = %d, want the %d budget", p.Stats.Cycles, c.MaxCycles)
	}
}

func TestWatchdogDetectsWedgedPipeline(t *testing.T) {
	c := testConfig()
	c.MaxCycles = 2_000_000
	c.WatchdogCycles = 2_000
	p := New(c, spinProg(), mem.NewImage())
	p.InjectWedge(100) // commit retires nothing from cycle 100 on
	err := p.Run()
	if err == nil {
		t.Fatal("wedged pipeline finished")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("watchdog error not errors.Is(ErrDeadlock): %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("watchdog error not a *DeadlockError: %v", err)
	}
	// Detection must come well before the cycle budget: the wedge lands at
	// cycle 100 and the window is 2k, so under 1% of MaxCycles is ample.
	if de.Cycle > c.MaxCycles/100 {
		t.Errorf("deadlock detected at cycle %d, want < %d (1%% of budget)", de.Cycle, c.MaxCycles/100)
	}
	if de.Snapshot == "" {
		t.Error("DeadlockError carries no machine snapshot")
	}
	for _, want := range []string{"cycle", "rob"} {
		if !strings.Contains(de.Snapshot, want) {
			t.Errorf("snapshot missing %q:\n%s", want, de.Snapshot)
		}
	}
}

func TestWatchdogQuietOnProgressingRun(t *testing.T) {
	c := testConfig()
	c.WatchdogCycles = 500 // tight window; a healthy loop still commits
	im := mem.NewImage()
	p := New(c, isa.NewBuilder().
		MovI(0, 0).
		MovI(1, 0).
		MovI(2, 100).
		Label("loop").
		Add(1, 1, 0).
		AddI(0, 0, 1).
		BLT(0, 2, "loop").
		Halt().
		MustBuild(), im)
	if err := p.Run(); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if p.S[1] != 4950 {
		t.Errorf("sum = %d, want 4950", p.S[1])
	}
}

// pollCtx is a context whose Err trips at its third call: it counts the
// pipeline's cancellation polls.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= 3 {
		return context.Canceled
	}
	return nil
}

func TestCancelHookStopsRun(t *testing.T) {
	c := testConfig()
	p := New(c, spinProg(), mem.NewImage())
	err := p.RunContext(&pollCtx{Context: context.Background()})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	// Polled every 4096 cycles: the third poll lands at cycle 2*4096.
	if p.Stats.Cycles > 3*4096 {
		t.Errorf("cancellation took %d cycles, want <= %d", p.Stats.Cycles, 3*4096)
	}
}

func TestInvariantViolationsAreTyped(t *testing.T) {
	corruptions := map[string]func(p *Pipeline){
		"rob-order": func(p *Pipeline) {
			p.rob = append(p.rob,
				&robEntry{seq: 5, state: sDone, inst: &isa.Inst{Op: isa.OpHalt}},
				&robEntry{seq: 4, state: sDone, inst: &isa.Inst{Op: isa.OpHalt}})
		},
		"rob-state": func(p *Pipeline) {
			p.rob = append(p.rob, &robEntry{seq: 1, state: 99, inst: &isa.Inst{Op: isa.OpHalt}})
		},
	}
	for check, corrupt := range corruptions {
		t.Run(check, func(t *testing.T) {
			p := New(testConfig(), spinProg(), mem.NewImage())
			corrupt(p)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("corrupted state passed checkInvariants")
				}
				ie, ok := r.(InvariantError)
				if !ok {
					t.Fatalf("panic value %T, want InvariantError", r)
				}
				if ie.Check != check {
					t.Errorf("violated check %q, want %q", ie.Check, check)
				}
			}()
			p.checkInvariants()
		})
	}
}

// Every check class named by InvariantChecks must be unique: the harness's
// failure taxonomy keys on them.
func TestInvariantCheckNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range InvariantChecks {
		if seen[c] {
			t.Errorf("duplicate invariant check name %q", c)
		}
		seen[c] = true
	}
}
