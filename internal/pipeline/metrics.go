package pipeline

import "srvsim/internal/obsv"

// Metrics returns the pipeline's metrics registry, building it on first use
// so un-instrumented runs pay nothing. Every counter of the core, the SRV
// controller, the LSU, the predictors and the cache hierarchy is registered
// as a live view over the field the hot path increments; DumpStats and the
// srvsim -metrics-out exporter are renderings of this registry.
func (p *Pipeline) Metrics() *obsv.Registry {
	if p.metrics == nil {
		p.metrics = p.buildRegistry()
	}
	return p.metrics
}

func (p *Pipeline) buildRegistry() *obsv.Registry {
	r := obsv.NewRegistry()

	core := r.Section("core")
	core.Counter("sim.cycles", "simulated cycles", &p.Stats.Cycles)
	core.Counter("sim.insts", "committed instructions", &p.Stats.Committed)
	core.Counter("sim.microOps", "committed micro-ops (gather/scatter split)", &p.Stats.MicroOps)
	core.Gauge("sim.ipc", "committed instructions per cycle", "%.4f", func() float64 { return p.Stats.IPC() })
	core.Counter("sim.memInsts", "committed memory instructions", &p.Stats.CommittedMem)
	core.Counter("sim.vecInsts", "committed vector instructions", &p.Stats.CommittedVec)
	core.Counter("core.squashes", "pipeline squashes (all causes)", &p.Stats.Squashes)
	core.Counter("core.squashedInsts", "instructions discarded by squashes", &p.Stats.SquashedInsts)
	core.Counter("core.verticalSquashes", "memory-order misspeculations", &p.Stats.VerticalSquashes)
	core.Counter("core.dispatchStall.rob", "dispatch stalls: ROB full", &p.Stats.DispatchStallROB)
	core.Counter("core.dispatchStall.iq", "dispatch stalls: IQ full", &p.Stats.DispatchStallIQ)
	core.Counter("core.dispatchStall.lsq", "dispatch stalls: LSU full", &p.Stats.DispatchStallLSQ)
	core.Counter("core.interrupts", "interrupts delivered", &p.Stats.Interrupts)
	core.Counter("core.exceptions", "precise memory exceptions delivered", &p.Stats.Exceptions)
	core.Counter("core.deferredFaults", "in-region faults deferred to replay", &p.Stats.DeferredFaults)

	// The srv section interleaves controller counters with pipeline-owned
	// barrier accounting, preserving the historical dump order.
	srv := r.Section("srv")
	st := &p.Ctrl.Stats
	srv.Counter("srv.regions", "completed SRV regions", &st.Regions)
	srv.Counter("srv.vectorIters", "region passes including replays", &st.VectorIters)
	srv.Counter("srv.replays", "selective replay rounds", &st.Replays)
	srv.Counter("srv.replayLanes", "lanes re-executed across replays", &st.ReplayLanes)
	srv.Counter("srv.barrierCycles", "srv_end serialisation stall cycles", &p.Stats.BarrierCycles)
	srv.Counter("srv.viol.raw", "horizontal RAW violations (replayed)", &st.RAWViol)
	srv.Counter("srv.viol.war", "horizontal WAR violations (forwarding suppressed)", &st.WARViol)
	srv.Counter("srv.viol.waw", "horizontal WAW violations (selective write-back)", &st.WAWViol)
	srv.Counter("srv.fallbacks", "regions demoted to sequential execution", &st.Fallbacks)
	srv.Counter("srv.excReplays", "exception-lane re-markings", &st.ExcReplays)
	srv.If(func() bool { return p.regionHist.Total() > 0 }).
		Gauge("srv.regionDurMean", "mean region duration in cycles (start execution to commit)", "%.2f",
			p.regionHist.Mean)
	srv.Histogram("srv.regionDuration", "region duration distribution in cycles", p.regionHist)

	// Replay-attribution aggregates, exported only while the per-PC profile
	// is enabled so DumpStats stays bit-identical with profiling off. The
	// closures re-check p.prof: the section predicate and the render are two
	// separate moments.
	prof := r.Section("replayProf").If(func() bool { return p.prof != nil })
	profInt := func(get func(pr *replayProfile) int64) func() int64 {
		return func() int64 {
			if p.prof == nil {
				return 0
			}
			return get(p.prof)
		}
	}
	prof.CounterFn("srv.replayProf.rounds", "replay rounds attributed to a static PC",
		profInt(func(pr *replayProfile) int64 { return pr.rounds }))
	prof.CounterFn("srv.replayProf.lanes", "squashed lanes attributed to a static PC",
		profInt(func(pr *replayProfile) int64 { return pr.lanes }))
	prof.CounterFn("srv.replayProf.fallbacks", "sequential demotions attributed to a static PC",
		profInt(func(pr *replayProfile) int64 { return pr.fallbacks }))
	prof.CounterFn("srv.replayProf.wastedCycles", "cycles spent in attributed replay/fallback passes",
		profInt(func(pr *replayProfile) int64 { return pr.wasted }))

	p.LSU.RegisterMetrics(r.Section("lsu"))

	pred := r.Section("predictors")
	p.BP.RegisterMetrics(pred)
	p.SS.RegisterMetrics(pred)

	p.Hier.RegisterMetrics(r.Section("caches"))
	return r
}
