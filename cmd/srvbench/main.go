// srvbench regenerates the paper's tables and figures on the simulator.
//
// Usage:
//
//	srvbench                 # everything (Table I, §II limit study, Figs 6-13)
//	srvbench -exp fig6       # one experiment
//	srvbench -exp limit -seed 11
//	srvbench -chaos 0.2      # fault-inject 20% of simulations (resilience drill)
//	srvbench -timing out.json -benchmarks is,bzip2
//	srvbench -cpuprofile cpu.pprof -exp fig6
//	srvbench -remote http://localhost:8077   # farm every simulation to a srvd daemon
//	srvbench -remote http://localhost:8077 -net-chaos 0.2   # ...through a faulty network
//
// Failure handling: a failing simulation (panic, deadlock, cycle-budget
// blowout, divergence) is contained — its loop is dropped from the
// aggregates, re-run once with diagnostics for a crash artifact (-crashdir),
// and listed in the failure summary. The process then exits 3 ("completed
// with contained failures") rather than 1 (fatal). -failfast restores
// abort-on-first-error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

// experiments is the -exp vocabulary, in help order.
var experiments = []string{
	"all", "tab1", "limit", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "costmodel", "regions", "sweep",
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
	seed := flag.Int64("seed", 7, "workload data seed")
	jsonOut := flag.Bool("json", false, "emit the full evaluation as JSON")
	timing := flag.String("timing", "", "write per-benchmark wall-clock timings as JSON to this file")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset for -timing (default all)")
	par := flag.Int("parallel", harness.DefaultParallelism(), "max concurrent simulations (1 = serial)")
	remote := flag.String("remote", "", "execute simulations on a srvd daemon at this base URL (e.g. http://localhost:8077)")
	failfast := flag.Bool("failfast", false, "abort on the first simulation failure instead of containing it")
	crashdir := flag.String("crashdir", "crashes", "directory for crash artifacts and diagnostic re-runs (empty = disabled)")
	simTimeout := flag.Duration("sim-timeout", 0, "wall-clock budget per simulation, e.g. 2m (0 = unbounded)")
	chaos := flag.Float64("chaos", 0, "fault-injection probability per simulation in [0,1] (resilience drill)")
	chaosSeed := flag.Int64("chaos-seed", 1, "decision seed for -chaos fault injection")
	netChaos := flag.Float64("net-chaos", 0, "with -remote: drop/delay/black-hole this fraction of HTTP calls in [0,1] (network resilience drill)")
	netChaosSeed := flag.Int64("net-chaos-seed", 1, "decision seed for -net-chaos fault injection")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	obs = obsv.RegisterObsFlags(flag.CommandLine, "trace-out", "metrics-out")
	flag.Parse()
	env = &harness.Env{
		Parallelism: *par,
		FailFast:    *failfast,
		CrashDir:    *crashdir,
		SimTimeout:  *simTimeout,
		ChaosProb:   *chaos,
		ChaosSeed:   *chaosSeed,
	}
	if *remote != "" {
		// Every request of env — and therefore every figure — now executes
		// on the daemon; the local pool only fans out requests.
		// The client retries transient failures by default, so -net-chaos can
		// sabotage the wire and the run must still come back bit-identical.
		var opts []serve.ClientOption
		if *netChaos > 0 {
			opts = append(opts, serve.WithTransport(&serve.ChaosTransport{
				Seed: *netChaosSeed,
				P:    *netChaos,
			}))
		}
		env.Executor = serve.NewClient(*remote, opts...).Executor()
	} else if *netChaos > 0 {
		exit(fmt.Errorf("-net-chaos requires -remote (it faults the HTTP transport)"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			exit(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			exit(err)
		}
		defer pprof.StopCPUProfile()
	}

	if obs.TraceOut != "" {
		fleetSpans = obsv.NewSpanRecorder(0)
		fleetRoot = env.TraceTo(fleetSpans)
		fleetStart = time.Now()
	}
	ctx := context.Background()
	var err error
	switch {
	case *timing != "":
		var subset []string
		if *benches != "" {
			subset = strings.Split(*benches, ",")
		}
		err = env.WriteTimings(ctx, *timing, *seed, subset)
	case *jsonOut:
		err = env.WriteJSON(ctx, *seed, os.Stdout)
	default:
		err = run(ctx, *exp, *seed)
	}
	if *memprofile != "" {
		if perr := writeHeapProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // idempotent; flush before a non-zero exit
	}
	exit(err)
}

// The run's harness environment and fleet observability state, read by
// exit() so every termination path — clean, contained failures (exit 3),
// fatal (exit 1) — emits the fleet summary and artifacts.
var (
	env        *harness.Env
	obs        *obsv.ObsFlags
	fleetSpans *obsv.SpanRecorder
	fleetRoot  obsv.SpanContext
	fleetStart time.Time
)

// writeObsArtifacts closes the fleet root span and writes the requested
// observability outputs: -trace-out gets a Perfetto view of the fleet (one
// leaf span per simulation under one root), -metrics-out the fleet registry
// as JSON ("-" = stdout).
func writeObsArtifacts() error {
	if fleetSpans != nil {
		fleetSpans.Record(obsv.Span{
			Trace: fleetRoot.Trace, ID: fleetRoot.Span, Name: "srvbench",
			Start: fleetStart, End: time.Now(),
		})
	}
	emit := func(path string, write func(*os.File) error) error {
		if path == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	// fleetSpans is nil when exit() fires before the fleet was set up (flag
	// validation errors); there is nothing to write then.
	if obs.TraceOut != "" && fleetSpans != nil {
		if err := emit(obs.TraceOut, func(f *os.File) error { return fleetSpans.WriteTrace(f) }); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if obs.MetricsOut != "" {
		if err := emit(obs.MetricsOut, func(f *os.File) error { return env.FleetRegistry().WriteJSON(f) }); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

// writeHeapProfile snapshots the heap (after a GC, so live objects dominate)
// into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exit maps the harness's error taxonomy onto process exit codes: 0 clean,
// 3 completed-with-contained-failures (partial results were produced), 1
// fatal (no usable results). The fleet summary and observability artifacts
// are emitted here, on every path — a fatal run's partial fleet throughput
// and trace are exactly what the post-mortem needs.
func exit(err error) {
	if fs := env.SnapshotFleet(); fs.Simulations > 0 {
		fmt.Fprint(os.Stderr, fs)
	}
	if oerr := writeObsArtifacts(); oerr != nil {
		fmt.Fprintln(os.Stderr, "srvbench:", oerr)
		if err == nil {
			err = oerr
		}
	}
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "srvbench:", err)
	var fe *harness.FleetError
	if errors.As(err, &fe) {
		os.Exit(3)
	}
	os.Exit(1)
}

func run(ctx context.Context, exp string, seed int64) error {
	switch exp {
	case "all":
		return env.RunAll(ctx, seed, os.Stdout)
	case "tab1":
		fmt.Print(harness.Table1())
		return nil
	case "limit":
		rep, err := env.LimitStudy(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		return nil
	case "fig13":
		rep, err := env.Fig13(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		return nil
	case "sweep":
		rep, err := env.Sweep(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		return nil
	case "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "costmodel", "regions":
		rs, err := env.Measure(ctx, seed)
		if err != nil {
			return err
		}
		var rep harness.Report
		switch exp {
		case "fig6":
			rep = harness.Fig6(rs)
		case "fig7":
			rep = harness.Fig7(rs)
		case "fig8":
			rep = harness.Fig8(rs)
		case "fig9":
			rep = harness.Fig9(rs)
		case "fig10":
			rep = harness.Fig10(rs)
		case "fig11":
			rep = harness.Fig11(rs)
		case "fig12":
			rep = harness.Fig12(rs)
		case "costmodel":
			rep = harness.CostModelReport(rs)
		case "regions":
			rep = harness.RegionProfile(rs)
		}
		fmt.Print(rep)
		if fails := rs.Failures(); len(fails) > 0 {
			fmt.Print(harness.FailureSummary(fails))
			return &harness.FleetError{Failures: fails}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(experiments, ", "))
	}
}
