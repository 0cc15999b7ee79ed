package pipeline

import (
	"testing"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
)

// This microbenchmark guards the allocation-free contract of the per-cycle
// observability hooks. Run with -benchmem; allocs/op must stay at 0 in
// steady state (only slab warm-up growth allocates).

// quietBenchPipeline builds a pipeline frozen in a representative quiet
// state: front end stalled, one fetch slot waiting out the front-end delay,
// and one granted in-flight memory op waiting out its latency.
func quietBenchPipeline(tb testing.TB) *Pipeline {
	tb.Helper()
	prog := isa.NewBuilder().MovI(0, 0).Halt().MustBuild()
	p := New(testConfig(), prog, mem.NewImage())
	p.cycle = 1000
	p.fetchStalled = true
	p.fetchq.push(FetchSlot{PC: 0, ReadyAt: p.cycle + 40})
	e := p.allocEntry()
	e.seq = 1
	e.pc = 0
	e.inst = prog.At(0)
	e.state = sIssued
	e.granted = true
	e.doneAt = p.cycle + 90
	p.pushROB(e)
	p.inflight = append(p.inflight, e)
	return p
}

var benchSink int64

// BenchmarkObserveCycle measures the per-cycle observability hook with both
// sampling and tracing enabled at their densest settings.
func BenchmarkObserveCycle(b *testing.B) {
	p := quietBenchPipeline(b)
	p.EnableSampling(1)
	tr := obsv.NewTracer()
	tr.SetCap(4096)
	p.AttachTracer(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.sampler.Len() >= 4096 {
			p.sampler.Reset()
		}
		p.cycle++
		p.observeCycle()
	}
	benchSink = p.cycle
}
