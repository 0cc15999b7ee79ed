// Command srvperf is the repository's end-to-end and per-layer benchmark.
//
// One process builds everything it measures: the in-process harness for the
// suite workload, and for the service workloads an in-process fleet (a
// gateway.New over two serve.New nodes, one job worker each, on loopback)
// driven by two closed-loop clients (at most one per CPU), each on its own
// keep-alive connection.
//
//	srvperf --workload suite|cold-small|hot-hits|mixed-journal|all
//	        [--seed 7] [--seconds 20] [--trace 0|1] [--spans FILE]
//	srvperf --compare A B
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. Both check the simulator's and
// the service's outputs, and the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed check
// makes the exit status non-zero. README.md defines every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"srvsim/internal/harness"
)

// processStart anchors the first set-up's clock: set-up time runs from
// process start to the first timed request.
var processStart = time.Now()

// setupRuns is how many independent set-ups a run makes; setup_s is the
// median of their times, and the last one's fleet is measured. The first
// is timed from process start. The smoke test lowers it to stay short.
var setupRuns = 3

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span NDJSON path of a traced run
	root     string // repository root (BENCH_baseline.json, .bench_build)
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// metricSet holds metrics by name.
type metricSet map[string]metric

func (s metricSet) put(ms ...metric) {
	for _, m := range ms {
		s[m.name] = m
	}
}

func (s metricSet) value(name string) float64 { return s[name].value }

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               metricSet // end-to-end metrics (untraced window)
	traced            metricSet // end-to-end metrics of the traced half
	layer             metricSet // per-layer metrics (traced runs)
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: metricSet{}, traced: metricSet{}, layer: metricSet{}}
}

// fail records one failed check; the run then exits non-zero.
func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// overhead stores the tracing overhead: the share of untraced throughput
// the traced half lost.
func (oc *outcome) overhead() {
	oc.layer.put(metric{"trace.overhead_frac", 1 - ratio(oc.traced.value("jobs_per_s"), oc.e2e.value("jobs_per_s")), "ratio", 0})
}

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// e2eSpecs are the end-to-end metrics every untraced run prints, in order.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"allocs_per_job", "count"},
	{"cpu_ms_per_job", "ms"},
}

// layerSpecs are the per-layer metrics every traced run prints, in order. A
// metric whose layer a workload does not exercise reads 0.
var layerSpecs = []spec{
	{"hit_latency_p99_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"retained_kb_per_job", "KB"},
	{"trace.overhead_frac", "ratio"},
	{"workloads.instantiate_us_p50", "us"},
	{"workloads.instantiate_us_p99", "us"},
	{"compiler.eval_us_p50", "us"},
	{"compiler.eval_us_p99", "us"},
	{"compiler.compile_us_p50", "us"},
	{"compiler.compile_us_p99", "us"},
	{"pipeline.new_us_p50", "us"},
	{"pipeline.new_us_p99", "us"},
	{"pipeline.new_allocs", "count"},
	{"pipeline.warm_us_p50", "us"},
	{"pipeline.warm_us_p99", "us"},
	{"pipeline.run_ns_per_cycle", "ns/cycle"},
	{"pipeline.run_allocs_per_kcycle", "allocs/kcycle"},
	{"pipeline.cycles", "count"},
	{"mem.firstdiff_us_p50", "us"},
	{"mem.firstdiff_us_p99", "us"},
	{"harness.marshal_us_p50", "us"},
	{"harness.marshal_us_p99", "us"},
	{"harness.result_bytes", "B"},
	{"harness.run_ms_p50", "ms"},
	{"harness.run_ms_p99", "ms"},
	{"harness.allocs_per_kcycle", "allocs/kcycle"},
	{"harness.overhead_us_p50", "us"},
	{"harness.overhead_us_p99", "us"},
	{"harness.utilization", "ratio"},
	{"harness.scalar_busy_frac", "ratio"},
	{"client.transport_us_p50", "us"},
	{"client.transport_us_p99", "us"},
	{"gateway.self_us_p50", "us"},
	{"gateway.self_us_p99", "us"},
	{"serve.cachekey_us_p50", "us"},
	{"serve.cachekey_us_p99", "us"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.execute_ms_p50", "ms"},
	{"serve.execute_ms_p99", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.overhead_ms_p99", "ms"},
	{"serve.refused_per_req", "ratio"},
	{"gateway.handoffs_per_req", "ratio"},
}

// workload is one traffic mix; run measures it for o.window().
type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloadList = []workload{
	{"suite", runSuite},
	{"cold-small", runColdSmall},
	{"hot-hits", runHotHits},
	{"mixed-journal", runMixedJournal},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jsonMetric and jsonResult are the last line's wire shape.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines and returns the result line.
func report(o options, oc *outcome) jsonResult {
	fmt.Printf("srvperf workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s code=%s\n",
		o.workload, o.seed, o.seconds, b2i(o.trace), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), harness.CodeVersion)
	for _, n := range oc.notes {
		fmt.Println("note:", n)
	}
	section := func(title string, specs []spec, vals metricSet) {
		fmt.Println(title)
		for _, s := range specs {
			v := vals.value(s.name)
			text := fmt.Sprintf("%.6g", v)
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				text = fmt.Sprintf("%d", int64(v))
			}
			line := fmt.Sprintf("  %-34s %14s %s", s.name, text, s.unit)
			if n := vals[s.name].n; n > 0 {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Println(line)
		}
	}
	section("end-to-end (untraced):", e2eSpecs, oc.e2e)
	chosen, vals := e2eSpecs, oc.e2e
	if o.trace {
		section("end-to-end (traced half):", e2eSpecs[1:], oc.traced)
		section("per-layer:", layerSpecs, oc.layer)
		chosen, vals = layerSpecs, oc.layer
	}
	for _, p := range oc.problems {
		fmt.Println("FAILED:", p)
	}
	res := jsonResult{
		Correct: len(oc.problems) == 0 && oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: map[string]jsonMetric{},
	}
	for _, s := range chosen {
		res.Metrics[s.name] = jsonMetric{Value: vals.value(s.name), Unit: s.unit}
	}
	return res
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of its own, one after the
// other, and reports whether all of them passed.
func runAll(o options) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvperf:", err)
		return false
	}
	ok := true
	for _, w := range workloadList {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(b2i(o.trace)), "--root", o.root}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "srvperf: workload %s: %v\n", w.name, err)
			ok = false
		}
	}
	return ok
}

func main() {
	var o options
	var trace int
	compare := flag.Bool("compare", false, "compare two directories of saved run outputs: --compare A B")
	flag.StringVar(&o.workload, "workload", "", "suite, cold-small, hot-hits, mixed-journal, or all")
	flag.Int64Var(&o.seed, "seed", 7, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window, seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant, which reports per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span NDJSON output of a traced run (default .bench_build/srvperf/spans-<workload>.ndjson)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.Parse()
	o.trace = trace == 1

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: srvperf --compare A B")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, filepath.Join(o.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "srvperf:", err)
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "srvperf: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		if !runAll(o) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "srvperf: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", "srvperf", "spans-"+w.name+".ndjson")
	}
	oc, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srvperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := report(o, oc)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srvperf: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
