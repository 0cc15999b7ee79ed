package harness

import (
	"context"
	"reflect"
	"testing"

	"srvsim/internal/workloads"
)

// TestParallelMatchesSerial proves the worker pool is an observational no-op:
// every workload benchmark is measured once with a single worker and once
// with several, and the LoopResult structs must be identical field for field.
// Simulations share no mutable state, and aggregation happens in loop-index
// order after the fan-out, so any divergence here is a real data race or an
// order-dependent aggregate.
func TestParallelMatchesSerial(t *testing.T) {
	const seed = 7
	ctx := context.Background()
	serialEnv, parallelEnv := &Env{Parallelism: 1}, &Env{Parallelism: 8}

	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			serial, err := serialEnv.RunBenchmark(ctx, b, seed)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			parallel, err := parallelEnv.RunBenchmark(ctx, b, seed)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if len(serial.Loops) != len(parallel.Loops) {
				t.Fatalf("loop count differs: serial=%d parallel=%d",
					len(serial.Loops), len(parallel.Loops))
			}
			for i := range serial.Loops {
				if !reflect.DeepEqual(serial.Loops[i], parallel.Loops[i]) {
					t.Errorf("loop %s differs:\nserial:   %+v\nparallel: %+v",
						serial.Loops[i].Loop, serial.Loops[i], parallel.Loops[i])
				}
			}
			if serial.Speedup != parallel.Speedup ||
				serial.Whole != parallel.Whole ||
				serial.Barrier != parallel.Barrier {
				t.Errorf("aggregates differ: serial=(%.6f %.6f %.6f) parallel=(%.6f %.6f %.6f)",
					serial.Speedup, serial.Whole, serial.Barrier,
					parallel.Speedup, parallel.Whole, parallel.Barrier)
			}
		})
	}
}

// TestParMapOrderAndErrors pins the contract RunBenchmark relies on: results
// land at their own index and the reported error is the first in index
// order, independent of scheduling.
func TestParMapOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		env := &Env{Parallelism: workers}
		out := make([]int, 64)
		if err := env.parMap(len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}

		errs := []int{5, 2, 9}
		err := env.parMap(12, func(i int) error {
			for _, bad := range errs {
				if i == bad {
					return errAt(i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != errAt(2).Error() {
			t.Fatalf("workers=%d: got %v, want first-in-index-order error %v",
				workers, err, errAt(2))
		}
	}
}

type errAt int

func (e errAt) Error() string { return "failure at index " + string(rune('0'+int(e))) }
