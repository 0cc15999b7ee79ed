package pipeline_test

import (
	"context"
	"runtime"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// Allocation regression tests. The counts come from runtime.MemStats, which
// is exact but process-wide, so none of these tests runs in parallel.

// maxNewAllocs bounds pipeline.New: the cache tag arrays, the ROB-entry
// pool, the LSU entries and the LSU's line, key and instance tables are
// each one slab, so construction costs a fixed few dozen allocations
// whatever the configured sizes (34 with Go 1.24, plus a margin of 4).
const maxNewAllocs = 38

// maxNewBytes bounds the heap pipeline.New allocates at any configured size.
// The slabs stop at 1024 entries, so New stays under 2 MB; slabs sized from
// a 64K-entry ROB and LSQ would take about 55 MB.
const maxNewBytes = 4 << 20

// maxGatherAllocsPerKCycle bounds a gather/scatter-heavy SRV run. Dispatch,
// the LSU line index, the scratch buffers and the fetch ring allocate
// nothing once built (Go 1.24 counts one allocation in 60 435 cycles).
// Reserving a gather's 16 lane entries from a growing slice again would
// cost thousands per kcycle.
const maxGatherAllocsPerKCycle = 16

func compileLoop(t *testing.T, bench string, loop int, mode compiler.Mode) (*isa.Program, *mem.Image) {
	t.Helper()
	w, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	l, im := w.Loops[loop].Instantiate(7)
	c, err := compiler.Compile(l, im, mode)
	if err != nil {
		t.Fatalf("compile %s loop %d: %v", bench, loop, err)
	}
	return c.Prog, im
}

func TestNewAllocs(t *testing.T) {
	prog, im := compileLoop(t, "h264ref", 0, compiler.ModeSRV)
	cfg := pipeline.DefaultConfig()
	n := testing.AllocsPerRun(10, func() { pipeline.New(cfg, prog, im) })
	if n > maxNewAllocs {
		t.Errorf("pipeline.New made %.0f allocations, want <= %d", n, maxNewAllocs)
	}
}

// newBytes returns the heap bytes one pipeline.New call allocates.
func newBytes(cfg pipeline.Config, prog *isa.Program, im *mem.Image) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.KeepAlive(pipeline.New(cfg, prog, im))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewOversizedConfig pins that configured sizes only limit the ROB, the
// LSU and the fetch queue: a request asking for a huge ROB, LSQ or front
// end must not make New commit memory in proportion, since a request's
// configuration is untrusted.
func TestNewOversizedConfig(t *testing.T) {
	prog, im := compileLoop(t, "h264ref", 0, compiler.ModeSRV)
	def := newBytes(pipeline.DefaultConfig(), prog, im)
	cfg := pipeline.DefaultConfig()
	cfg.ROBSize, cfg.LSQSize = -1, -1
	pipeline.New(cfg, prog, im) // negative sizes build empty slabs, not a panic
	cfg.ROBSize, cfg.LSQSize = 1<<16, 1<<16
	big := newBytes(cfg, prog, im)
	t.Logf("pipeline.New: %d bytes at Table I sizes, %d bytes at 64K-entry ROB and LSQ", def, big)
	if big > maxNewBytes {
		t.Errorf("pipeline.New with a 64K-entry ROB and LSQ allocated %d bytes, want <= %d", big, maxNewBytes)
	}
	cfg = pipeline.DefaultConfig()
	cfg.Width, cfg.FrontEndDelay = 1<<20, 1<<20
	if wide := newBytes(cfg, prog, im); wide > maxNewBytes {
		t.Errorf("pipeline.New at width and front-end delay 1<<20 allocated %d bytes, want <= %d", wide, maxNewBytes)
	}
	cfg.Width, cfg.FrontEndDelay = -1, -1
	pipeline.New(cfg, prog, im) // an empty fetch queue, not a panic
}

func TestGatherRunAllocs(t *testing.T) {
	prog, im := compileLoop(t, "soplex", 0, compiler.ModeSRV)
	p := pipeline.New(pipeline.DefaultConfig(), prog, im)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	perK := 1000 * float64(allocs) / float64(p.Stats.Cycles)
	t.Logf("%d allocations over %d cycles: %.2f allocs/kcycle", allocs, p.Stats.Cycles, perK)
	if perK > maxGatherAllocsPerKCycle {
		t.Errorf("RunContext made %.2f allocs/kcycle, want <= %d", perK, maxGatherAllocsPerKCycle)
	}
}
