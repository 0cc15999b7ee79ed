package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"srvsim/internal/pipeline"
)

// FailKind classifies one simulation failure: the harness's typed taxonomy,
// mirroring how the paper's mechanism treats misspeculation — detect,
// record, recover, continue — applied to the simulation fleet itself.
type FailKind int

const (
	// KindCompileError: the loop failed to compile (scalar or SRV codegen).
	KindCompileError FailKind = iota
	// KindRunError: the simulation returned an error that fits no more
	// specific kind (including cooperative cancellation / timeouts).
	KindRunError
	// KindCycleBudget: the run exceeded Config.MaxCycles (pipeline.ErrCycleBudget).
	KindCycleBudget
	// KindDeadlock: the forward-progress watchdog fired (pipeline.ErrDeadlock);
	// the SimError carries the machine snapshot.
	KindDeadlock
	// KindInvariantViolation: a paranoid-mode structural invariant panicked
	// (pipeline.InvariantError), caught at the recover boundary.
	KindInvariantViolation
	// KindPanic: any other panic escaping a simulation, caught at the
	// recover boundary with its stack.
	KindPanic
	// KindDivergence: the final memory image differs from the sequential
	// reference evaluator — a correctness bug, not an infrastructure one.
	KindDivergence
)

var failKindNames = [...]string{
	KindCompileError:       "CompileError",
	KindRunError:           "RunError",
	KindCycleBudget:        "CycleBudget",
	KindDeadlock:           "Deadlock",
	KindInvariantViolation: "InvariantViolation",
	KindPanic:              "Panic",
	KindDivergence:         "Divergence",
}

func (k FailKind) String() string {
	if k >= 0 && int(k) < len(failKindNames) {
		return failKindNames[k]
	}
	return fmt.Sprintf("FailKind(%d)", int(k))
}

// ParseFailKind inverts String (crash-artifact round trips).
func ParseFailKind(s string) (FailKind, bool) {
	for k, n := range failKindNames {
		if n == s {
			return FailKind(k), true
		}
	}
	return 0, false
}

// SimError is one contained simulation failure, attributed to the
// (benchmark, loop, variant, seed) that produced it. It wraps the original
// error (when there was one), so errors.Is/As keep working through it.
type SimError struct {
	Kind     FailKind
	Bench    string
	Loop     string
	Variant  string // "scalar", "srv", "diag", fuzz stage, ...
	Seed     int64
	Cycle    int64 // simulated cycle of the failure, when known
	Msg      string
	Snapshot string // machine snapshot (deadlocks)
	Stack    string // goroutine stack (panics)
	Artifact string // crash-artifact path, when one was written
	// Checkpoint is the serialised pipeline.Checkpoint of the failed machine
	// (deadlocks): `srvsim -repro` restores it to single-step the wedge.
	Checkpoint json.RawMessage
	Err        error // wrapped cause (nil for panics)
}

func (e *SimError) Error() string {
	where := e.Bench
	if e.Loop != "" {
		where += "/" + e.Loop
	}
	if e.Variant != "" {
		where += "/" + e.Variant
	}
	if where == "" {
		where = "(unattributed)"
	}
	return fmt.Sprintf("%s [%v]: %s", where, e.Kind, e.Msg)
}

func (e *SimError) Unwrap() error { return e.Err }

// attribution names the simulation a guarded function runs on behalf of.
type attribution struct {
	bench, loop, variant string
	seed                 int64
}

// classify maps an error returned by a simulation to a typed, attributed
// SimError. Errors that are already *SimError pass through (attribution
// backfilled if missing).
func (a attribution) classify(err error) *SimError {
	var se *SimError
	if errors.As(err, &se) {
		if se.Bench == "" {
			se.Bench, se.Loop, se.Variant, se.Seed = a.bench, a.loop, a.variant, a.seed
		}
		return se
	}
	out := &SimError{
		Kind: KindRunError, Bench: a.bench, Loop: a.loop, Variant: a.variant,
		Seed: a.seed, Msg: err.Error(), Err: err,
	}
	var de *pipeline.DeadlockError
	switch {
	case errors.As(err, &de):
		out.Kind = KindDeadlock
		out.Cycle = de.Cycle
		out.Snapshot = de.Snapshot
		if de.Checkpoint != nil {
			if raw, merr := json.Marshal(de.Checkpoint); merr == nil {
				out.Checkpoint = raw
			}
		}
	case errors.Is(err, pipeline.ErrCycleBudget):
		out.Kind = KindCycleBudget
	}
	return out
}

// fromPanic converts a recovered panic value into a SimError: typed
// invariant violations keep their identity, everything else is a Panic.
func (a attribution) fromPanic(r any, stack []byte) *SimError {
	out := &SimError{
		Kind: KindPanic, Bench: a.bench, Loop: a.loop, Variant: a.variant,
		Seed: a.seed, Stack: string(stack),
	}
	switch v := r.(type) {
	case pipeline.InvariantError:
		out.Kind = KindInvariantViolation
		out.Cycle = v.Cycle
		out.Msg = v.Error()
		out.Err = v
	case error:
		out.Msg = v.Error()
		out.Err = v
	default:
		out.Msg = fmt.Sprint(r)
	}
	return out
}

// guard is the recover boundary around one simulation: panics become typed
// SimErrors instead of tearing down the worker goroutine (and with it the
// whole fleet), and plain errors come back classified and attributed.
func (a attribution) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = a.fromPanic(r, debug.Stack())
		}
	}()
	if e := fn(); e != nil {
		return a.classify(e)
	}
	return nil
}

// simErr builds an attributed SimError for failures the harness detects
// itself (compile errors, divergences).
func (a attribution) simErr(kind FailKind, format string, args ...any) *SimError {
	return &SimError{
		Kind: kind, Bench: a.bench, Loop: a.loop, Variant: a.variant,
		Seed: a.seed, Msg: fmt.Sprintf(format, args...),
	}
}

// AsSimError coerces any error into a *SimError (classifying and wrapping
// when needed), for callers that hold errors from mixed sources.
func AsSimError(err error) *SimError {
	return attribution{}.classify(err)
}

// FleetError reports that an evaluation completed with contained failures:
// the run finished, partial aggregates and the failure summary were
// produced, and the caller should exit non-zero without treating the
// condition as a fatal error.
type FleetError struct {
	Failures []*SimError
}

func (e *FleetError) Error() string {
	return fmt.Sprintf("%d simulation(s) failed; run completed with partial results (see failure summary)",
		len(e.Failures))
}
