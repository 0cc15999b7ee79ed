package harness

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The harness fans independent simulations out across a bounded worker
// pool: every (benchmark, loop, variant) pipeline owns its memory image,
// compiler output and pipeline state, so they are embarrassingly parallel.
// Results are collected positionally, which keeps aggregation order — and
// therefore every figure and JSON report — bit-identical to a serial run.

// contain is parMap's recover boundary: a panic escaping one simulation is
// converted into a typed SimError instead of tearing down the worker
// goroutine (which would crash the whole process). Attribution-aware guards
// closer to the simulation add bench/loop/variant identity; this is the
// backstop that guarantees containment regardless.
func contain(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = attribution{}.fromPanic(r, debug.Stack())
		}
	}()
	return fn(i)
}

// parMap runs fn(0..n-1) across at most e.Parallelism goroutines and
// returns the first error in index order (not completion order), so error
// reporting is deterministic. Panics in fn are contained and surface as
// *SimError return values. Each call sizes its own goroutine set; nested
// calls therefore cannot deadlock, and the scheduler bounds real
// parallelism at GOMAXPROCS.
func (e *Env) parMap(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(e.workers(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := contain(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = contain(fn, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
