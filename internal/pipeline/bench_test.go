package pipeline_test

import (
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// Whole-pipeline benchmarks: one simulated run per op over a representative
// workload loop, in scalar and SRV form. sim_cycles/op divided by ns/op
// gives the simulator's cycles/sec throughput; run with -benchmem to watch
// the LSU hot-path allocation count.

func benchRun(b *testing.B, bench string, loopIdx int, mode compiler.Mode) {
	b.Helper()
	w, ok := workloads.ByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %q", bench)
	}
	ls := w.Loops[loopIdx]
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, im := ls.Instantiate(7)
		c, err := compiler.Compile(l, im, mode)
		if err != nil {
			b.Fatalf("compile: %v", err)
		}
		b.StartTimer()
		p := pipeline.New(pipeline.DefaultConfig(), c.Prog, im)
		if err := p.Run(); err != nil {
			b.Fatalf("run: %v", err)
		}
		cycles += p.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim_cycles/op")
}

func BenchmarkPipelineScalar(b *testing.B) {
	benchRun(b, "is", 0, compiler.ModeScalar)
}

func BenchmarkPipelineSRV(b *testing.B) {
	benchRun(b, "is", 0, compiler.ModeSRV)
}

// BenchmarkPipelineGatherSRV runs a gather/scatter loop (h264ref's motion
// compensation) in SRV form. The is loop above never reserves the per-lane
// LSU entries a gather or scatter takes, so only this benchmark watches that
// dispatch path's allocations.
func BenchmarkPipelineGatherSRV(b *testing.B) {
	benchRun(b, "h264ref", 0, compiler.ModeSRV)
}
