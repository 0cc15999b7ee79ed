package harness

import (
	"runtime"
	"time"

	"srvsim/internal/obsv"
)

// Env is everything the harness reads besides a Request: how many
// simulations run at once, where requests execute, which recorder gets the
// leaf spans, the failure policy, the core the loops simulate on, and the
// fleet counters its runs add to. Every driver is an Env method, and no
// driver reads a process-wide setting, so two Envs in one process share
// nothing: each CLI, daemon and test builds its own.
//
// Set the fields before the first run and leave them alone while a run is
// in flight; that is what lets workers read them without locks. An Env
// holds atomic counters, so use it by pointer and never copy it.
type Env struct {
	// Parallelism bounds the simulations run concurrently. Below 1 means
	// serial.
	Parallelism int
	// Executor, when set, runs every canonical request instead of the
	// in-process harness (serve.Client.Executor farms them to a daemon). It
	// must not call back into this Env's Run, or requests would loop.
	Executor Executor
	// ChaosProb is the probability, in [0, 1], that a simulation is replaced
	// by an injected fault (0 = off); ChaosSeed drives the decision. See
	// chaos.go.
	ChaosProb float64
	ChaosSeed int64
	// FailFast aborts a benchmark on its first failing loop instead of
	// containing the failure in BenchResult.Failures.
	FailFast bool
	// SimTimeout bounds each simulation variant's wall-clock time through
	// the pipeline's cooperative cancellation (0 = unbounded).
	SimTimeout time.Duration
	// CrashDir is where crash artifacts are written. Setting it also enables
	// the diagnostic re-run of failed loops; "" disables both.
	CrashDir string

	spans *obsv.SpanRecorder // leaf-span recorder (nil = no tracing)
	root  obsv.SpanContext   // the fleet root every leaf span descends from
	fleet fleetCounters
}

// DefaultParallelism is the worker-pool size every entrypoint (srvsim,
// srvbench, srvd) starts from: one worker per CPU. CLIs use it as the
// -parallel flag default instead of each calling runtime.NumCPU themselves.
func DefaultParallelism() int { return runtime.NumCPU() }

// workers is the effective worker bound: Parallelism, at least 1.
func (e *Env) workers() int { return max(e.Parallelism, 1) }

// TraceTo makes rec receive one leaf span per simulation under a fresh
// fleet-root trace, and returns that root: every leaf span and every remote
// submission of this Env descends from it. nil turns tracing off and
// returns the zero context. The caller records the root span itself, since
// it knows when the fleet ends.
func (e *Env) TraceTo(rec *obsv.SpanRecorder) obsv.SpanContext {
	e.spans, e.root = rec, obsv.SpanContext{}
	if rec != nil {
		e.root = obsv.NewTrace()
	}
	return e.root
}
