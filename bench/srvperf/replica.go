package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"srvsim/internal/compiler"
	"srvsim/internal/harness"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// spanCap bounds the spans a traced run keeps for its NDJSON file; the
// per-layer metrics are computed from every sample regardless.
const spanCap = 1 << 16

// replicaNote states what the harness phase numbers describe.
const replicaNote = "harness phases come from the bench's own copy of harness.runLoop's public call order " +
	"(Instantiate, Eval, Compile, pipeline.New, warm, RunContext, FirstDiff), run serially; they time that copy, " +
	"not spans inside the program"

// loopCall is one ModeLoop simulation the replica re-runs.
type loopCall struct {
	bench string
	ls    workloads.LoopSpec
	seed  int64
}

// simConfig is the harness's default pipeline configuration (its unexported
// cfg): Table I with a test-sized cycle budget.
func simConfig() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = 500_000_000
	return c
}

// warm pre-touches every line of the loop's arrays, as the harness does
// before each measured simulation.
func warm(p *pipeline.Pipeline, l *compiler.Loop) {
	for _, a := range l.Arrays() {
		end := a.Base + uint64(a.Elem*a.Len)
		for line := a.Base &^ 63; line < end; line += 64 {
			p.Hier.Latency(line)
		}
	}
}

// countedCalls is how many of a replica's first calls are run a second
// time to count heap allocations: all 32 suite loops, or four of each small
// loop. Counts are deterministic, so the timed pass never pays for them.
const countedCalls = 32

// replicaPass runs the phases of a loop either timed, each phase recorded
// as a span, or counted: heap allocations per phase, exact by ReadMemStats,
// which flushes every cache and so never brackets a timed phase.
type replicaPass struct {
	count bool
	ms    runtime.MemStats
	rec   *obsv.SpanRecorder
	trace obsv.SpanContext
}

func (rp *replicaPass) step(name string, f func()) (time.Duration, uint64) {
	if rp.count {
		runtime.ReadMemStats(&rp.ms)
		a0 := rp.ms.Mallocs
		f()
		runtime.ReadMemStats(&rp.ms)
		return 0, rp.ms.Mallocs - a0
	}
	t0 := time.Now()
	f()
	t1 := time.Now()
	rp.rec.Record(obsv.Span{Trace: rp.trace.Trace, ID: obsv.NewSpanID(), Parent: rp.trace.Span,
		Name: name, Start: t0, End: t1})
	return t1.Sub(t0), 0
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replicaSamples collects the replica's samples: times from the timed
// pass, allocations from the counting pass.
type replicaSamples struct {
	inst, eval, comp, newd, warmd, diff []float64 // us
	runMS, marshal, bytes, overhead     []float64
	simNS, simCycles                    float64
	newAllocs                           []float64
	simAllocs, countedCycles            float64
	runAllocs, runCycles                float64
}

// runReplica re-runs each call serially: first every public call of
// harness.runLoop in its order, then the real harness.Run and json.Marshal
// of its Result. The replica's per-variant cycles must equal the ones
// harness.Run returns, or the run fails (the copy's fidelity check).
func runReplica(oc *outcome, calls []loopCall, rec *obsv.SpanRecorder) {
	oc.notes = append(oc.notes, replicaNote)
	prev := harness.Parallelism()
	harness.SetParallelism(1) // harness.Run then runs its variants serially, like the replica
	defer harness.SetParallelism(prev)

	var s replicaSamples
	replay := func(c loopCall, count bool) {
		rp := &replicaPass{count: count, rec: rec, trace: obsv.NewTrace()}
		if err := replicateLoop(&s, c, rp); err != nil {
			oc.fail("replica %s/%s seed %d: %v", c.bench, c.ls.Shape.Name, c.seed, err)
		}
	}
	for _, c := range calls {
		replay(c, false)
	}
	for _, c := range calls[:min(len(calls), countedCalls)] {
		replay(c, true)
	}
	oc.layer.put(pctl("workloads.instantiate_us", "", "us", s.inst)...)
	oc.layer.put(pctl("compiler.eval_us", "", "us", s.eval)...)
	oc.layer.put(pctl("compiler.compile_us", "", "us", s.comp)...)
	oc.layer.put(pctl("pipeline.new_us", "", "us", s.newd)...)
	oc.layer.put(pctl("pipeline.warm_us", "", "us", s.warmd)...)
	oc.layer.put(pctl("mem.firstdiff_us", "", "us", s.diff)...)
	oc.layer.put(pctl("harness.marshal_us", "", "us", s.marshal)...)
	oc.layer.put(pctl("harness.run_ms", "", "ms", s.runMS)...)
	oc.layer.put(pctl("harness.overhead_us", "", "us", s.overhead)...)
	oc.layer.put(
		metric{"pipeline.new_allocs", median(s.newAllocs), "count", len(s.newAllocs)},
		metric{"pipeline.run_ns_per_cycle", ratio(s.simNS, s.simCycles), "ns/cycle", len(s.newd)},
		metric{"pipeline.run_allocs_per_kcycle", ratio(1000*s.simAllocs, s.countedCycles), "allocs/kcycle", len(s.newAllocs)},
		metric{"pipeline.cycles", s.simCycles, "count", len(s.newd)},
		metric{"harness.result_bytes", median(s.bytes), "B", len(s.bytes)},
		metric{"harness.allocs_per_kcycle", ratio(1000*s.runAllocs, s.runCycles), "allocs/kcycle", len(s.newAllocs) / 2},
	)
	oc.notes = append(oc.notes, fmt.Sprintf("replica: %d loops timed, %d counted, cycles checked against harness.Run",
		len(calls), min(len(calls), countedCalls)))
}

// replicateLoop runs one call through the replica and the real harness.
func replicateLoop(s *replicaSamples, c loopCall, rp *replicaPass) error {
	ctx := context.Background()
	cfg := simConfig()
	ls := c.ls
	loopStart := time.Now()
	var phases time.Duration
	phase := func(xs *[]float64, name string, f func()) uint64 {
		d, allocs := rp.step(name, f)
		if !rp.count {
			phases += d
			*xs = append(*xs, us(d))
		}
		return allocs
	}

	var refLoop *compiler.Loop
	var refIm *mem.Image
	phase(&s.inst, "workloads.instantiate", func() { refLoop, refIm = ls.Instantiate(c.seed) })
	phase(&s.eval, "compiler.eval", func() { compiler.Eval(refLoop, refIm) })

	var cycles [2]int64
	for v, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
		var l *compiler.Loop
		var im *mem.Image
		var cc *compiler.Compiled
		var p *pipeline.Pipeline
		var err error
		phase(&s.inst, "workloads.instantiate", func() { l, im = ls.Instantiate(c.seed) })
		phase(&s.comp, "compiler.compile", func() { cc, err = compiler.Compile(l, im, mode) })
		if err != nil {
			return fmt.Errorf("%v compile: %w", mode, err)
		}
		if allocs := phase(&s.newd, "pipeline.new", func() { p = pipeline.New(cfg, cc.Prog, im) }); rp.count {
			s.newAllocs = append(s.newAllocs, float64(allocs))
		}
		phase(&s.warmd, "pipeline.warm", func() {
			warm(p, l)
			if harness.RefTickCore() {
				p.UseReferenceTickCore()
			}
		})
		d, allocs := rp.step("pipeline.run", func() { err = p.RunContext(ctx) })
		if err != nil {
			return fmt.Errorf("%v run: %w", mode, err)
		}
		cycles[v] = p.Stats.Cycles
		if rp.count {
			s.simAllocs += float64(allocs)
			s.countedCycles += float64(p.Stats.Cycles)
		} else {
			phases += d
			s.simNS += float64(d.Nanoseconds())
			s.simCycles += float64(p.Stats.Cycles)
		}
		var differs bool
		var addr uint64
		phase(&s.diff, "mem.firstdiff", func() { addr, differs = im.FirstDiff(refIm) })
		if differs {
			return fmt.Errorf("%v result diverges from the reference at %#x", mode, addr)
		}
	}

	var res harness.Result
	var err error
	req := harness.Request{Mode: harness.ModeLoop, Bench: c.bench, Loop: &ls, Seed: c.seed}
	d, allocs := rp.step("harness.run", func() { res, err = harness.Run(ctx, req) })
	if err != nil {
		return fmt.Errorf("harness.Run: %w", err)
	}
	if cycles[0] != res.Loop.ScalarCycles || cycles[1] != res.Loop.SRVCycles {
		return fmt.Errorf("replica cycles scalar=%d srv=%d, harness.Run scalar=%d srv=%d",
			cycles[0], cycles[1], res.Loop.ScalarCycles, res.Loop.SRVCycles)
	}
	if rp.count {
		s.runAllocs += float64(allocs)
		s.runCycles += float64(res.Loop.ScalarCycles + res.Loop.SRVCycles)
		return nil
	}
	s.runMS = append(s.runMS, ms(d))
	s.overhead = append(s.overhead, us(d-phases))
	var data []byte
	d, _ = rp.step("harness.marshal", func() { data, err = json.Marshal(res) })
	if err != nil {
		return fmt.Errorf("marshalling the result: %w", err)
	}
	s.marshal = append(s.marshal, us(d))
	s.bytes = append(s.bytes, float64(len(data)))
	rp.rec.Record(obsv.Span{Trace: rp.trace.Trace, ID: rp.trace.Span, Name: "replica.loop", Start: loopStart, End: time.Now(),
		Attrs: map[string]string{"bench": c.bench, "loop": ls.Shape.Name}})
	return nil
}

// writeSpans writes the run's spans as NDJSON to path.
func writeSpans(path string, rec *obsv.SpanRecorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteNDJSON(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "srvperf: %s holds the first %d spans; %d more were not kept\n", path, rec.Len(), n)
	}
	return nil
}
