package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/workloads"
)

// maxRunLoopAllocs bounds one RunLoop of is.rank (trip 8192). A zero Env
// has Parallelism 1, so parMap runs the two variants one after the other on
// the calling goroutine. The loop is instantiated once and its image
// cloned, one slab per clone, for the reference and the scalar variant.
// Go 1.24 counts 453–455 (449 with GOGC=off: a collection inside the
// measured runs empties the sync.Pools the run draws on), and 462–473
// under the race detector, which make check runs this package with and
// whose sync.Pool drops one Put in four at random.
const maxRunLoopAllocs = 500

func TestRunLoopAllocs(t *testing.T) {
	b, ok := workloads.ByName("is")
	if !ok {
		t.Fatal("benchmark is not registered")
	}
	e := &Env{}
	ctx := context.Background()
	n := testing.AllocsPerRun(3, func() {
		if _, err := e.RunLoop(ctx, b.Name, b.Loops[0], 7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunLoop(%s): %.0f allocations", b.Loops[0].Shape.Name, n)
	if n > maxRunLoopAllocs {
		t.Errorf("RunLoop(%s) made %.0f allocations, want <= %d", b.Loops[0].Shape.Name, n, maxRunLoopAllocs)
	}
}

// TestCompileLeavesLoopUnchanged pins what lets runLoop share one
// instantiated loop between the reference and both variants: nothing the
// harness calls on the loop writes to it. Both compiles run concurrently,
// as runLoop's variants do, so -race also reports a write;
// TestParallelMatchesSerial runs the variants themselves concurrently.
func TestCompileLeavesLoopUnchanged(t *testing.T) {
	for _, b := range workloads.All() {
		for i, ls := range b.Loops {
			seed := int64(7 + i)
			l, im := ls.Instantiate(seed)
			snap, _ := ls.Instantiate(seed) // an independent copy to compare against
			if !reflect.DeepEqual(l, snap) {
				t.Fatalf("%s/%s: two instantiations differ", b.Name, ls.Shape.Name)
			}
			var wg sync.WaitGroup
			for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := compiler.Compile(l, im.Clone(), mode); err != nil {
						t.Errorf("%s/%s: compile %v: %v", b.Name, ls.Shape.Name, mode, err)
					}
				}()
			}
			wg.Wait()
			compiler.Eval(l, im.Clone())
			compiler.DefaultCostModel().Estimate(l)
			l.MemAccessCount()
			l.AccessSummaries()
			l.Arrays()
			if !reflect.DeepEqual(l, snap) {
				t.Errorf("%s/%s: the loop changed under compile, eval and analysis", b.Name, ls.Shape.Name)
			}
		}
	}
}
