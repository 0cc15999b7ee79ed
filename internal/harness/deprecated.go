package harness

import (
	"context"

	"srvsim/internal/obsv"
)

// The package default Env and the package-level functions over it. A
// caller that builds no Env of its own (a serve.Server without
// Config.Harness, the srvperf benchmark) runs here. New code builds an Env
// and calls its methods; the setters remain only until the benchmark
// module stops calling them.

var defaultEnv = &Env{Parallelism: DefaultParallelism()}

// Run runs req on the package default Env.
func Run(ctx context.Context, req Request) (Result, error) { return defaultEnv.Run(ctx, req) }

// Measure runs every benchmark once on the package default Env.
func Measure(seed int64) (Results, error) { return defaultEnv.Measure(context.Background(), seed) }

// SetParallelism sets the package default Env's worker bound (below 1 means
// serial).
//
// Deprecated: build an Env and set its Parallelism.
func SetParallelism(n int) { defaultEnv.Parallelism = n }

// Parallelism returns the package default Env's effective worker bound.
func Parallelism() int { return defaultEnv.workers() }

// SetSpanRecorder points the package default Env's leaf spans at rec and
// returns their fleet root (see Env.TraceTo).
//
// Deprecated: build an Env and call its TraceTo.
func SetSpanRecorder(rec *obsv.SpanRecorder) obsv.SpanContext { return defaultEnv.TraceTo(rec) }

// RefTickCore reports false: the simulator has one core, which steps every
// cycle.
//
// Deprecated: kept only so the separate benchmark module (bench/srvperf)
// still builds; it will be deleted with that caller.
func RefTickCore() bool { return false }

// ResetFleet zeroes the package default Env's fleet counters.
func ResetFleet() { defaultEnv.ResetFleet() }

// SnapshotFleet returns the package default Env's fleet metrics.
func SnapshotFleet() FleetSnapshot { return defaultEnv.SnapshotFleet() }
