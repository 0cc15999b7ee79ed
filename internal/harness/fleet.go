package harness

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"srvsim/internal/obsv"
)

// Fleet metrics: each Env's atomic counters over the leaf simulations it ran
// (one scalar or SRV variant run each). They are recorded at the variant
// level — not in parMap — so nested fan-outs (benchmarks over loops over
// variants) never double-count busy time. Everything is monotonic and
// lock-free; a snapshot is a consistent-enough view for throughput
// reporting.
//
// Fleet tracing: when an Env has a span recorder (TraceTo), every leaf
// simulation also records one span under the Env's fleet root, and Run
// carries that root through the context, so a remote executor's client
// submissions carry the fleet's TraceID to the daemon.

type fleetCounters struct {
	simulations   atomic.Int64 // leaf variant simulations finished (ok or failed)
	failures      atomic.Int64 // of which returned an error
	chaosInjected atomic.Int64 // of which were chaos-injected faults
	busyNS        atomic.Int64 // summed wall-clock of leaf simulations
	scalarNS      atomic.Int64 // busy time attributed to scalar variants
	srvNS         atomic.Int64 // busy time attributed to SRV variants
	firstStart    atomic.Int64 // unix nanos of the first leaf start (0 = none)
	lastEnd       atomic.Int64 // unix nanos of the latest leaf end
}

// ResetFleet zeroes the Env's fleet counters.
func (e *Env) ResetFleet() {
	f := &e.fleet
	f.simulations.Store(0)
	f.failures.Store(0)
	f.chaosInjected.Store(0)
	f.busyNS.Store(0)
	f.scalarNS.Store(0)
	f.srvNS.Store(0)
	f.firstStart.Store(0)
	f.lastEnd.Store(0)
}

// fleetRecord accounts one finished leaf simulation, and — when the Env has
// a span recorder — records it as one leaf span under the fleet root.
func (e *Env) fleetRecord(a attribution, start time.Time, err error) {
	end := time.Now()
	d := end.Sub(start).Nanoseconds()
	fleet := &e.fleet
	fleet.simulations.Add(1)
	if err != nil {
		fleet.failures.Add(1)
	}
	fleet.busyNS.Add(d)
	switch a.variant {
	case "scalar":
		fleet.scalarNS.Add(d)
	case "srv":
		fleet.srvNS.Add(d)
	}
	if e.spans != nil {
		sc := e.root.Child()
		sp := obsv.Span{
			Trace: sc.Trace, ID: sc.Span, Parent: e.root.Span,
			Name: a.variant, Start: start, End: end,
			Attrs: map[string]string{
				"bench": a.bench, "loop": a.loop,
				"seed": strconv.FormatInt(a.seed, 10),
			},
		}
		if err != nil {
			sp.Attrs["error"] = err.Error()
		}
		e.spans.Record(sp)
	}
	fleet.firstStart.CompareAndSwap(0, start.UnixNano())
	for {
		last := fleet.lastEnd.Load()
		if end.UnixNano() <= last || fleet.lastEnd.CompareAndSwap(last, end.UnixNano()) {
			return
		}
	}
}

// FleetSnapshot is a point-in-time view of the fleet counters plus derived
// throughput figures. Utilization compares summed busy time against the
// elapsed wall-clock times the worker bound — 1.0 means every worker slot was
// running a simulation the whole time.
type FleetSnapshot struct {
	Simulations   int64   `json:"simulations"`
	Failures      int64   `json:"failures"`
	ChaosInjected int64   `json:"chaos_injected"`
	Workers       int     `json:"workers"`
	WallMS        float64 `json:"wall_ms"`
	BusyMS        float64 `json:"busy_ms"`
	ScalarMS      float64 `json:"scalar_ms"`
	SRVMS         float64 `json:"srv_ms"`
	Utilization   float64 `json:"utilization"`
	SimsPerSec    float64 `json:"sims_per_sec"`
}

// SnapshotFleet derives the Env's current fleet metrics.
func (e *Env) SnapshotFleet() FleetSnapshot {
	fleet := &e.fleet
	s := FleetSnapshot{
		Simulations:   fleet.simulations.Load(),
		Failures:      fleet.failures.Load(),
		ChaosInjected: fleet.chaosInjected.Load(),
		Workers:       e.workers(),
		BusyMS:        float64(fleet.busyNS.Load()) / 1e6,
		ScalarMS:      float64(fleet.scalarNS.Load()) / 1e6,
		SRVMS:         float64(fleet.srvNS.Load()) / 1e6,
	}
	first, last := fleet.firstStart.Load(), fleet.lastEnd.Load()
	if first > 0 && last > first {
		wallNS := float64(last - first)
		s.WallMS = wallNS / 1e6
		s.Utilization = float64(fleet.busyNS.Load()) / (wallNS * float64(s.Workers))
		s.SimsPerSec = float64(s.Simulations) / (wallNS / 1e9)
	}
	return s
}

// String renders the snapshot as a one-paragraph fleet summary.
func (s FleetSnapshot) String() string {
	if s.Simulations == 0 {
		return "fleet: no simulations recorded\n"
	}
	out := fmt.Sprintf("fleet: %d simulations in %.1fs wall (%.1f sims/sec), %d workers %.0f%% utilized\n",
		s.Simulations, s.WallMS/1e3, s.SimsPerSec, s.Workers, s.Utilization*100)
	out += fmt.Sprintf("fleet: busy %.1fs (scalar %.1fs, srv %.1fs)", s.BusyMS/1e3, s.ScalarMS/1e3, s.SRVMS/1e3)
	if s.Failures > 0 || s.ChaosInjected > 0 {
		out += fmt.Sprintf(", %d failed (%d chaos-injected)", s.Failures, s.ChaosInjected)
	}
	return out + "\n"
}

// FleetRegistry builds an obsv view over the Env's fleet counters, so
// srvbench can export them with -metrics-out in the same registry JSON
// format srvsim and srvd use. Derived figures (utilization, throughput) come
// from the same snapshot logic as the text summary.
func (e *Env) FleetRegistry() *obsv.Registry {
	fleet := &e.fleet
	r := obsv.NewRegistry()
	s := r.Section("fleet")
	s.CounterFn("fleet.simulations", "leaf variant simulations finished (ok or failed)", fleet.simulations.Load)
	s.CounterFn("fleet.failures", "leaf simulations that returned an error", fleet.failures.Load)
	s.CounterFn("fleet.chaos_injected", "failures that were chaos-injected", fleet.chaosInjected.Load)
	s.Gauge("fleet.busy_ms", "summed wall-clock of leaf simulations, milliseconds", "%.1f",
		func() float64 { return float64(fleet.busyNS.Load()) / 1e6 })
	s.Gauge("fleet.scalar_ms", "busy time attributed to scalar variants, milliseconds", "%.1f",
		func() float64 { return float64(fleet.scalarNS.Load()) / 1e6 })
	s.Gauge("fleet.srv_ms", "busy time attributed to SRV variants, milliseconds", "%.1f",
		func() float64 { return float64(fleet.srvNS.Load()) / 1e6 })
	s.Gauge("fleet.utilization", "busy time over elapsed wall-clock times the worker bound", "%.3f",
		func() float64 { return e.SnapshotFleet().Utilization })
	s.Gauge("fleet.sims_per_sec", "leaf simulations per second of wall-clock", "%.2f",
		func() float64 { return e.SnapshotFleet().SimsPerSec })
	return r
}
