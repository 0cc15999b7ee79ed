package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// suiteWorkers is the harness worker count of the suite workload.
const suiteWorkers = 2

// streamPass tags the pass-seed stream in splitmix.
const streamPass = 1

// baselineSeed is the seed BENCH_baseline.json records cycles at.
const baselineSeed = 7

// passSeed is the seed of the k-th timed harness.Measure pass of a run.
// Pass 0 uses the run's seed itself; later passes use fresh seeds, because
// simulated cycles vary by ~10% between seeds and a run's median must not
// hang on one of them.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return int64(splitmix(seed, streamPass, uint64(k)) % 1_000_000_000)
}

// setupSeed is the seed of a run's i-th set-up pass. The first is always
// the baseline seed, so every run checks its cycles against
// BENCH_baseline.json; the others are seeds of the run's own timed passes,
// which must repeat their set-up cycles exactly.
func setupSeed(seed int64, i int) int64 {
	if i == 0 {
		return baselineSeed
	}
	return passSeed(seed, i)
}

// benchCycles is one benchmark's simulated cycles, scalar and SRV.
type benchCycles struct{ scalar, srv int64 }

func cyclesOf(rs harness.Results) map[string]benchCycles {
	out := make(map[string]benchCycles, len(rs.Bench))
	for _, br := range rs.Bench {
		var c benchCycles
		for _, l := range br.Loops {
			c.scalar += l.ScalarCycles
			c.srv += l.SRVCycles
		}
		out[br.Bench.Name] = c
	}
	return out
}

func totalCycles(cs map[string]benchCycles) int64 {
	var n int64
	for _, c := range cs {
		n += c.scalar + c.srv
	}
	return n
}

// loadBaseline reads the per-benchmark cycles of BENCH_baseline.json, the
// seed-7 reference the bench gate also uses.
func loadBaseline(path string) (map[string]benchCycles, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Seed       int64 `json:"seed"`
		Benchmarks []struct {
			Bench        string `json:"bench"`
			ScalarCycles int64  `json:"scalar_cycles"`
			SRVCycles    int64  `json:"srv_cycles"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]benchCycles{}
	for _, b := range doc.Benchmarks {
		out[b.Bench] = benchCycles{b.ScalarCycles, b.SRVCycles}
	}
	return out, nil
}

// checkCycles counts every benchmark whose cycles differ from want as failed.
func checkCycles(oc *outcome, what string, got, want map[string]benchCycles) {
	for _, b := range workloads.All() {
		if g, w := got[b.Name], want[b.Name]; g != w {
			oc.fail("%s: %s cycles scalar=%d srv=%d, want scalar=%d srv=%d", what, b.Name, g.scalar, g.srv, w.scalar, w.srv)
		}
	}
}

// suitePass is one timed harness.Measure call.
type suitePass struct {
	dur    time.Duration
	jobs   int
	cycles int64
}

// suiteLoad runs Measure passes from pass index k until d has elapsed,
// checking each pass, and returns the passes and the next pass index.
func suiteLoad(oc *outcome, seed int64, k int, d time.Duration, refs map[int64]map[string]benchCycles) ([]suitePass, int) {
	var passes []suitePass
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		ps := passSeed(seed, k)
		t0 := time.Now()
		rs, err := harness.Measure(ps)
		dur := time.Since(t0)
		k++
		n := len(workloads.All())
		oc.attempted += int64(n)
		if err != nil {
			oc.fail("pass seed %d: %v", ps, err)
			continue
		}
		for _, se := range rs.Failures() {
			oc.fail("pass seed %d: %v", ps, se)
		}
		got := cyclesOf(rs)
		if ref, ok := refs[ps]; ok {
			checkCycles(oc, fmt.Sprintf("pass seed %d repeat", ps), got, ref)
		}
		passes = append(passes, suitePass{dur: dur, jobs: n, cycles: totalCycles(got)})
	}
	return passes, k
}

// suiteWindow runs Measure passes for d under the monitor, as suiteLoad
// does, and puts the window's end-to-end metrics into dst. Throughput is
// the median over the passes; latency is the wall time of a pass; CPU time
// and allocations are the process's between the window's first and last
// pass. It also returns the window's peak heap in MB.
func suiteWindow(oc *outcome, dst metricSet, seed int64, k int, d time.Duration, refs map[int64]map[string]benchCycles) ([]suitePass, int, float64) {
	mon := startMonitor()
	h0 := readHost()
	passes, k := suiteLoad(oc, seed, k, d, refs)
	h1 := readHost()
	peak := mon.finish()
	var rates, mcycles, lat []float64
	jobs := 0
	for _, p := range passes {
		rates = append(rates, float64(p.jobs)/p.dur.Seconds())
		mcycles = append(mcycles, float64(p.cycles)/1e6/p.dur.Seconds())
		lat = append(lat, ms(p.dur))
		jobs += p.jobs
	}
	dst.put(
		metric{"jobs_per_s", median(rates), "1/s", len(passes)},
		metric{"sim_mcycles_per_s", median(mcycles), "Mcycles/s", len(passes)},
		metric{"allocs_per_job", ratio(float64(h1.mallocs-h0.mallocs), float64(jobs)), "count", jobs},
		metric{"cpu_ms_per_job", ratio(ms(h1.cpu-h0.cpu), float64(jobs)), "ms", jobs},
	)
	dst.put(pctl("latency", "_ms", "ms", lat)...)
	return passes, k, peak
}

// runSuite is the paper-reproduction path: repeated harness.Measure passes
// in process with two harness workers. It exercises pipeline, lsu and mem
// and bypasses every service layer.
func runSuite(o options) (*outcome, error) {
	oc := newOutcome()
	harness.SetParallelism(suiteWorkers)

	baseline, err := loadBaseline(filepath.Join(o.root, "BENCH_baseline.json"))
	if err != nil {
		return nil, fmt.Errorf("reading the cycle baseline: %w", err)
	}

	// Each set-up is one untimed warm-up pass on its own seed; its cycles
	// become the reference the timed repeat of that seed must match.
	refs := map[int64]map[string]benchCycles{}
	var setups []float64
	start := processStart
	for i := 0; i < setupRuns; i++ {
		ps := setupSeed(o.seed, i)
		rs, err := harness.Measure(ps)
		if err != nil {
			return nil, fmt.Errorf("set-up pass (seed %d): %w", ps, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, se := range rs.Failures() {
			oc.fail("set-up pass seed %d: %v", ps, se)
		}
		refs[ps] = cyclesOf(rs)
		start = time.Now()
	}
	checkCycles(oc, fmt.Sprintf("seed %d vs BENCH_baseline.json", baselineSeed), refs[baselineSeed], baseline)
	oc.e2e.put(metric{"setup_s", median(setups), "s", len(setups)})

	window := o.window()
	if o.trace {
		window /= 2
	}
	live0 := liveHeap()
	harness.ResetFleet()
	passes, k, peak := suiteWindow(oc, oc.e2e, o.seed, 0, window, refs)
	fleet := harness.SnapshotFleet()
	var cycles int64
	var jobs int
	for _, p := range passes {
		cycles += p.cycles
		jobs += p.jobs
	}
	oc.notes = append(oc.notes, fmt.Sprintf("suite: %d passes, %d benchmark results, %d simulated cycles", len(passes), jobs, cycles))
	if !o.trace {
		return oc, nil
	}

	oc.layer.put(
		metric{"heap_peak_mb", peak, "MB", 0},
		metric{"retained_kb_per_job", ratio((float64(liveHeap())-float64(live0))/1024, float64(jobs)), "KB", jobs},
		metric{"harness.utilization", fleet.Utilization, "ratio", int(fleet.Simulations)},
		metric{"harness.scalar_busy_frac", ratio(fleet.ScalarMS, fleet.BusyMS), "ratio", int(fleet.Simulations)},
	)

	// Traced half: the harness's own fleet spans (one per leaf simulation)
	// are recorded into the bench's span buffer.
	rec := obsv.NewSpanRecorder(spanCap)
	root := harness.SetSpanRecorder(rec)
	t0 := time.Now()
	suiteWindow(oc, oc.traced, o.seed, k, window, refs)
	harness.SetSpanRecorder(nil)
	rec.Record(obsv.Span{Trace: root.Trace, ID: root.Span, Name: "suite.traced", Start: t0, End: time.Now()})
	oc.overhead()

	var calls []loopCall
	for _, b := range workloads.All() {
		for i, ls := range b.Loops {
			calls = append(calls, loopCall{bench: b.Name, ls: ls, seed: o.seed + int64(i)})
		}
	}
	runReplica(oc, calls, rec)
	return oc, writeSpans(o.spans, rec)
}
