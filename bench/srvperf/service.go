package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// Seed streams of the service workloads' generated inputs.
const (
	streamCold = iota + 2
	streamPrewarm
	streamPick
)

// replicaCold is how many of a workload's first cold requests the traced
// run replays through the harness replica.
const replicaCold = 200

// cacheKeySamples is how many traced requests have Request.CacheKey timed.
const cacheKeySamples = 2000

// serviceWorkload is a traffic mix against the in-process fleet.
type serviceWorkload struct {
	fleet   fleetSpec
	prewarm func(seed int64) []harness.Request // results cached before any timing
	warmup  int64                              // calls of the mix sent at the end of every set-up
	mix     func(seed int64, pre int) func(i int64) call
	cold    bool // the mix sends cold requests
}

// shortLoop is one suite loop with a short trip count.
type shortLoop struct {
	bench string
	ls    workloads.LoopSpec
}

// shortLoops are the suite loops whose trip count is at most maxTrip.
func shortLoops(maxTrip int) []shortLoop {
	var out []shortLoop
	for _, b := range workloads.All() {
		for _, ls := range b.Loops {
			if ls.Shape.Trip <= maxTrip {
				out = append(out, shortLoop{b.Name, ls})
			}
		}
	}
	return out
}

var (
	// coldLoops are the 8 suite loops with trip count ≤ 1024: short
	// simulations, where per-simulation set-up and the service path weigh
	// most.
	coldLoops = shortLoops(1024)
	// prewarmLoops are the 6 with trip count ≤ 512. A hit costs the same
	// whatever loop it repeats, and these keep each set-up short.
	prewarmLoops = shortLoops(512)
)

// loopRequest is the k-th request of a seed stream: loop k mod len(loops)
// on a data seed drawn from the stream.
func loopRequest(loops []shortLoop, seed int64, stream uint64, k int64) (harness.Request, loopCall) {
	sl := loops[k%int64(len(loops))]
	c := loopCall{bench: sl.bench, ls: sl.ls, seed: int64(splitmix(seed, stream, uint64(k)) % (1 << 40))}
	return harness.Request{Mode: harness.ModeLoop, Bench: c.bench, Loop: &c.ls, Seed: c.seed}, c
}

// encode marshals the canonical form of req, as serve.Client sends it.
func encode(req harness.Request) []byte {
	c, err := req.Canonical()
	if err != nil {
		panic(fmt.Sprintf("srvperf: generated request is invalid: %v", err))
	}
	data, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("srvperf: encoding a request: %v", err))
	}
	return data
}

func coldCall(seed, k int64) call {
	req, _ := loopRequest(coldLoops, seed, streamCold, k)
	return call{body: encode(req), hit: -1, cold: k}
}

func prewarmRequests(seed int64, n int) []harness.Request {
	reqs := make([]harness.Request, n)
	for k := range reqs {
		reqs[k], _ = loopRequest(prewarmLoops, seed, streamPrewarm, int64(k))
	}
	return reqs
}

var coldSmall = serviceWorkload{
	warmup: 32,
	mix: func(seed int64, _ int) func(int64) call {
		return func(i int64) call { return coldCall(seed, i) }
	},
	cold: true,
}

var hotHits = serviceWorkload{
	prewarm: func(seed int64) []harness.Request {
		var reqs []harness.Request
		for i, b := range workloads.All() {
			reqs = append(reqs, harness.Request{Mode: harness.ModeBenchmark, Bench: b.Name,
				Seed: int64(splitmix(seed, streamPrewarm, uint64(1000+i)) % (1 << 40))})
		}
		return append(reqs, prewarmRequests(seed, 48)...)
	},
	warmup: 4096,
	mix: func(seed int64, pre int) func(int64) call {
		return func(i int64) call {
			return call{hit: int(splitmix(seed, streamPick, uint64(i)) % uint64(pre))}
		}
	},
}

var mixedJournal = serviceWorkload{
	fleet:   fleetSpec{nodeCache: 1024, journal: true},
	prewarm: func(seed int64) []harness.Request { return prewarmRequests(seed, 512) },
	warmup:  640,
	mix: func(seed int64, pre int) func(int64) call {
		return func(i int64) call {
			if i%5 == 0 {
				return coldCall(seed, i/5)
			}
			return call{hit: int(splitmix(seed, streamPick, uint64(i)) % uint64(pre))}
		}
	},
	cold: true,
}

// runColdSmall: every request is a fresh small loop that misses both cache
// tiers, so per-simulation set-up, result marshalling and the HTTP hops
// weigh most (the small-simulation tax).
func runColdSmall(o options) (*outcome, error) { return runService(o, coldSmall) }

// runHotHits: 64 pre-warmed requests that fit the gateway's LRU, so every
// call is a gateway-tier hit: admission, routing, the LRU and HTTP with the
// simulator idle, plus any per-hit state the fleet retains.
func runHotHits(o options) (*outcome, error) { return runService(o, hotHits) }

// runMixedJournal: journals on, one call in five a cold miss, the rest hits
// over 512 keys that, with the cold results, overflow the gateway LRU, so
// most hits reach the node tier while journal writes run beside them.
func runMixedJournal(o options) (*outcome, error) { return runService(o, mixedJournal) }

// serviceRun holds one run's fleet and generated inputs.
type serviceRun struct {
	o         options
	w         serviceWorkload
	oc        *outcome
	bodies    [][]byte // encoded pre-warm requests; a hit call reuses them
	pre       [][]byte // their results, from the first set-up
	preCycles []int64  // the simulated cycles of each result
	mix       func(i int64) call
	next      atomic.Int64
	fleet     *fleet
	clients   []*client
	hops      *hopLog
}

// setup boots a fresh fleet, pre-warms it and sends the warm-up calls.
func (r *serviceRun) setup(scratch string) error {
	f, err := bootFleet(r.w.fleet, scratch, r.hops)
	if err != nil {
		return err
	}
	r.fleet, r.clients = f, newClients(f.url)
	pre, err := r.prewarm()
	if err != nil {
		return err
	}
	if r.pre == nil {
		r.pre = pre
		for i, res := range pre {
			c, ok := simulatedCycles(res)
			if !ok {
				return fmt.Errorf("pre-warm request %d: result carries no loop or benchmark payload", i)
			}
			r.preCycles = append(r.preCycles, c)
		}
	}
	for i := range pre {
		if !bytes.Equal(pre[i], r.pre[i]) {
			r.oc.fail("pre-warmed request %d: result differs between set-ups", i)
		}
	}
	r.next.Store(0)
	p := r.phase()
	p.limit = r.w.warmup
	t := p.run()
	r.absorb(&t, "warm-up")
	return nil
}

// phase returns a load phase of the run's mix on its clients, to be bounded
// by a call limit or an end time.
func (r *serviceRun) phase() phase {
	return phase{clients: r.clients, mix: r.call, next: &r.next, pre: r.pre, preCycles: r.preCycles}
}

// prewarm submits every pre-warm request once and returns the results.
func (r *serviceRun) prewarm() ([][]byte, error) {
	out := make([][]byte, len(r.bodies))
	errs := make([]error, len(r.bodies))
	var next atomic.Int64
	done := make(chan struct{})
	for _, c := range r.clients {
		go func(c *client) {
			defer func() { done <- struct{}{} }()
			for i := next.Add(1) - 1; i < int64(len(r.bodies)); i = next.Add(1) - 1 {
				rep, err := c.do(r.bodies[i])
				out[i], errs[i] = rep.st.Result, err
			}
		}(c)
	}
	for range r.clients {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pre-warm request %d: %w", i, err)
		}
	}
	return out, nil
}

// call returns the i-th call of the mix, with hit bodies filled in.
func (r *serviceRun) call(i int64) call {
	c := r.mix(i)
	if c.hit >= 0 {
		c.body = r.bodies[c.hit]
	}
	return c
}

// teardown stops the run's fleet and clients, if any.
func (r *serviceRun) teardown() {
	if r.fleet != nil {
		closeClients(r.clients)
		r.fleet.close()
		r.fleet = nil
	}
}

// absorb charges a load phase's failures to the run.
func (r *serviceRun) absorb(t *tally, what string) {
	for _, p := range t.problems {
		r.oc.problems = append(r.oc.problems, what+": "+p)
	}
	r.oc.failed += t.failed
}

// measured is one load window and what it cost the host.
type measured struct {
	t      tally
	d      time.Duration
	h0, h1 hostSnap
	peakMB float64
}

// measure runs the timed load for d under the monitor.
func (r *serviceRun) measure(d time.Duration, record bool) measured {
	mon := startMonitor()
	h0 := readHost()
	p := r.phase()
	p.until, p.record = time.Now().Add(d), record
	t := p.run()
	h1 := readHost()
	peak := mon.finish()
	r.oc.attempted += t.attempted
	r.absorb(&t, "window")
	return measured{t: t, d: d, h0: h0, h1: h1, peakMB: peak}
}

// serviceE2E derives a window's end-to-end metrics from every call it
// completed. Throughput is the median over the window's whole 1-s slices;
// latencies are percentiles over all calls; CPU time and allocations are
// the process's over the whole window.
func serviceE2E(dst metricSet, m measured) {
	width, n := time.Second, int(m.d/time.Second)
	if n < 1 { // a window shorter than a slice is one slice
		width, n = m.d, 1
	}
	jobs := make([]float64, n)
	mcycles := make([]float64, n)
	lat := make([]float64, 0, len(m.t.samples))
	for _, s := range m.t.samples {
		lat = append(lat, s.lat)
		if i := int(s.end / width.Seconds()); i < n {
			jobs[i] += 1 / width.Seconds()
			mcycles[i] += float64(s.cycles) / 1e6 / width.Seconds()
		}
	}
	all := len(m.t.samples)
	dst.put(
		metric{"jobs_per_s", median(jobs), "1/s", n},
		metric{"sim_mcycles_per_s", median(mcycles), "Mcycles/s", n},
		metric{"allocs_per_job", ratio(float64(m.h1.mallocs-m.h0.mallocs), float64(all)), "count", all},
		metric{"cpu_ms_per_job", ratio(ms(m.h1.cpu-m.h0.cpu), float64(all)), "ms", all},
	)
	dst.put(pctl("latency", "_ms", "ms", lat)...)
}

func runService(o options, w serviceWorkload) (*outcome, error) {
	oc := newOutcome()
	scratch := filepath.Join(o.root, ".bench_build", "srvperf")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	r := &serviceRun{o: o, w: w, oc: oc}
	var preReqs []harness.Request
	if w.prewarm != nil {
		preReqs = w.prewarm(o.seed)
	}
	for _, req := range preReqs {
		r.bodies = append(r.bodies, encode(req))
	}
	r.mix = w.mix(o.seed, len(preReqs))
	if o.trace {
		r.hops = &hopLog{}
	}

	var setups []float64
	start := processStart
	defer r.teardown()
	for i := 0; i < setupRuns; i++ {
		if r.fleet != nil {
			r.teardown()
			start = time.Now()
		}
		if err := r.setup(scratch); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	oc.e2e.put(metric{"setup_s", median(setups), "s", len(setups)})

	window := o.window()
	if o.trace {
		window /= 2
	}
	live0 := liveHeap()
	harness.ResetFleet()
	m := r.measure(window, false)
	sims := harness.SnapshotFleet()
	serviceE2E(oc.e2e, m)
	oc.notes = append(oc.notes, fmt.Sprintf("window: %d calls, %d cold results kept for the local-run check", m.t.attempted, len(m.t.saved)))

	if o.trace {
		var hitLat []float64
		for _, s := range m.t.samples {
			if s.hit {
				hitLat = append(hitLat, s.lat)
			}
		}
		jobs := len(m.t.samples)
		oc.layer.put(
			metric{"heap_peak_mb", m.peakMB, "MB", 0},
			metric{"retained_kb_per_job", ratio((float64(liveHeap())-float64(live0))/1024, float64(jobs)), "KB", jobs},
			metric{"harness.utilization", sims.Utilization, "ratio", int(sims.Simulations)},
			metric{"harness.scalar_busy_frac", ratio(sims.ScalarMS, sims.BusyMS), "ratio", int(sims.Simulations)},
			pctl("hit_latency", "_ms", "ms", hitLat)[1],
		)
		if err := r.traced(window); err != nil {
			return nil, err
		}
	}
	r.checkCold(m.t.saved)
	return oc, nil
}

// traced runs the traced half: the same load with every handler timed,
// then the replica over the first cold requests, and writes the spans.
func (r *serviceRun) traced(window time.Duration) error {
	oc := r.oc
	c0, err := r.fleet.counters()
	if err != nil {
		return err
	}
	first := r.next.Load()
	r.hops.on.Store(true)
	m := r.measure(window, true)
	r.hops.on.Store(false)
	t := &m.t
	c1, err := r.fleet.counters()
	if err != nil {
		return err
	}
	serviceE2E(oc.traced, m)
	oc.overhead()
	r.checkCold(t.saved)

	rec := obsv.NewSpanRecorder(spanCap)
	joinHops(oc, t, r.hops.byTrace(), rec)
	c := c1.sub(c0)
	oc.layer.put(
		metric{"gateway.cache_hit_ratio", ratio(float64(c.gwHits), float64(c.gwHits+c.gwMisses)), "ratio", int(c.gwHits + c.gwMisses)},
		metric{"serve.cache_hit_ratio", ratio(float64(c.nodeHits), float64(c.nodeHits+c.nodeMisses)), "ratio", int(c.nodeHits + c.nodeMisses)},
		metric{"serve.refused_per_req", ratio(float64(c.refused), float64(t.attempted)), "ratio", int(t.attempted)},
		metric{"gateway.handoffs_per_req", ratio(float64(c.handoffs), float64(t.attempted)), "ratio", int(t.attempted)},
	)

	// Request.CacheKey on the traced window's first requests, decoded from
	// the very bodies that were sent.
	var keys []float64
	for i := first; i < first+min(t.attempted, cacheKeySamples); i++ {
		var req harness.Request
		if err := json.Unmarshal(r.call(i).body, &req); err != nil {
			return fmt.Errorf("decoding request %d: %w", i, err)
		}
		t0 := time.Now()
		if _, err := req.CacheKey(); err != nil {
			oc.fail("request %d: CacheKey: %v", i, err)
		}
		keys = append(keys, us(time.Since(t0)))
	}
	oc.layer.put(pctl("serve.cachekey_us", "", "us", keys)...)

	if r.w.cold {
		calls := make([]loopCall, replicaCold)
		for k := range calls {
			_, calls[k] = loopRequest(coldLoops, r.o.seed, streamCold, int64(k))
		}
		runReplica(oc, calls, rec)
	}
	return writeSpans(r.o.spans, rec)
}

// joinHops joins each traced reply with the gateway's and the node's
// handler times (same trace ID) and the node's job timestamps, derives the
// service-layer metrics, and records the joined spans.
func joinHops(oc *outcome, t *tally, hops map[obsv.TraceID]*[2]*hop, rec *obsv.SpanRecorder) {
	var transport, gwSelf, handler, queue, exec, over []float64
	span := func(parent obsv.SpanID, trace obsv.TraceID, name string, start, end time.Time) obsv.SpanID {
		id := obsv.NewSpanID()
		rec.Record(obsv.Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	missing := 0
	for _, rp := range t.records {
		h := hops[rp.sc.Trace]
		if h == nil || h[tierGateway] == nil {
			missing++
			continue
		}
		gw := h[tierGateway]
		rec.Record(obsv.Span{Trace: rp.sc.Trace, ID: rp.sc.Span, Name: "client.call", Start: rp.start, End: rp.end})
		gid := span(rp.sc.Span, rp.sc.Trace, "gateway.handler", gw.start, gw.end)
		gwd := gw.end.Sub(gw.start)
		transport = append(transport, us(rp.end.Sub(rp.start)-gwd))
		var nd time.Duration
		if n := h[tierNode]; n != nil {
			nd = n.end.Sub(n.start)
			handler = append(handler, ms(nd))
			nid := span(gid, rp.sc.Trace, "serve.handler", n.start, n.end)
			st := rp.st
			if !st.Cached && st.StartedAt != nil && st.FinishedAt != nil {
				queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
				exec = append(exec, ms(st.FinishedAt.Sub(*st.StartedAt)))
				over = append(over, ms(nd-st.FinishedAt.Sub(st.SubmittedAt)))
				span(nid, rp.sc.Trace, "serve.queue_wait", st.SubmittedAt, *st.StartedAt)
				span(nid, rp.sc.Trace, "serve.execute", *st.StartedAt, *st.FinishedAt)
			}
		}
		gwSelf = append(gwSelf, us(gwd-nd))
	}
	if missing > 0 {
		oc.fail("%d traced calls have no gateway handler record", missing)
	}
	oc.layer.put(pctl("client.transport_us", "", "us", transport)...)
	oc.layer.put(pctl("gateway.self_us", "", "us", gwSelf)...)
	oc.layer.put(pctl("serve.handler_ms", "", "ms", handler)...)
	oc.layer.put(pctl("serve.queue_wait_ms", "", "ms", queue)...)
	oc.layer.put(pctl("serve.execute_ms", "", "ms", exec)...)
	oc.layer.put(pctl("serve.overhead_ms", "", "ms", over)...)
}

// checkCold compares each kept cold result with a local harness.Run of the
// same request followed by json.Marshal: the fleet must be byte-identical
// to a local run.
func (r *serviceRun) checkCold(saved []savedCold) {
	for _, s := range saved {
		req, _ := loopRequest(coldLoops, r.o.seed, streamCold, s.k)
		res, err := harness.Run(context.Background(), req)
		if err != nil {
			r.oc.fail("cold request %d: local run: %v", s.k, err)
			continue
		}
		want, err := json.Marshal(res)
		if err != nil {
			r.oc.fail("cold request %d: marshalling the local result: %v", s.k, err)
			continue
		}
		var got bytes.Buffer
		if err := json.Compact(&got, s.result); err != nil || !bytes.Equal(got.Bytes(), want) {
			r.oc.fail("cold request %d: fleet result differs from a local run", s.k)
		}
	}
}
