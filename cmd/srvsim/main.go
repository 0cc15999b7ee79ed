// srvsim runs one workload loop on the cycle simulator under a chosen
// execution strategy and prints the pipeline statistics.
//
// Usage:
//
//	srvsim -list                     # list benchmarks and loops
//	srvsim -bench is                 # run all loops of a benchmark under SRV
//	srvsim -bench is -loop 0 -mode scalar
//	srvsim -bench bzip2 -loop 0 -dis # disassemble the compiled program
//	srvsim -file prog.s              # assemble and run a .s file
//	                                 # (".data addr, elem, v0, v1, ..." sets memory)
//	srvsim -repro crashes/x.json     # replay a crash artifact with diagnostics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"srvsim/internal/compiler"
	"srvsim/internal/harness"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list benchmarks and loops")
	bench := flag.String("bench", "", "benchmark name")
	loopIdx := flag.Int("loop", -1, "loop index (-1 = all)")
	mode := flag.String("mode", "srv", "execution mode: scalar|srv|compare")
	seed := flag.Int64("seed", 7, "workload data seed")
	dis := flag.Bool("dis", false, "print the compiled program")
	trace := flag.Bool("trace", false, "print every executed instruction (cycle, seq, pc, op)")
	file := flag.String("file", "", "assemble and run a .s program file")
	statsFlag := flag.Bool("stats", false, "dump the full gem5-style statistics report")
	pv := flag.Int("pipeview", 0, "render a stage timeline for the first N committed instructions")
	regions := flag.Bool("regions", false, "print the SRV region-duration distribution")
	par := flag.Int("parallel", harness.DefaultParallelism(), "max concurrent simulations (1 = serial)")
	repro := flag.String("repro", "", "replay a crash artifact (JSON written by the harness or srvfuzz)")
	obs = obsv.RegisterObsFlags(flag.CommandLine,
		"trace-out", "metrics-out", "sample-out", "sample-every", "replay-profile")
	flag.Parse()
	dumpStats = *statsFlag
	pipeview = *pv
	showRegions = *regions
	pipeline.DebugTrace = *trace
	env := &harness.Env{Parallelism: *par}
	ctx := context.Background()

	if *repro != "" {
		if err := env.ReplayArtifact(ctx, *repro, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "srvsim:", err)
			os.Exit(1)
		}
		return
	}
	if *file != "" {
		if err := runFile(*file); err != nil {
			fmt.Fprintln(os.Stderr, "srvsim:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		cm := compiler.DefaultCostModel()
		for _, b := range workloads.All() {
			fmt.Printf("%-10s (%s)\n", b.Name, b.Suite)
			for i, ls := range b.Loops {
				loop := ls.Shape.Build()
				total, gs := loop.MemAccessCount()
				fmt.Printf("  [%d] %-16s trip=%-5d accesses=%d (%d gather/scatter) weight=%.2f est=%.1fx\n",
					i, ls.Shape.Name, ls.Shape.Trip, total, gs, ls.Weight, cm.Estimate(loop))
			}
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "srvsim: -bench required (or -list)")
		os.Exit(1)
	}
	b, ok := workloads.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "srvsim: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	if *mode == "compare" {
		for i, ls := range b.Loops {
			if *loopIdx >= 0 && i != *loopIdx {
				continue
			}
			lr, err := env.RunLoop(ctx, b.Name, ls, *seed+int64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "srvsim:", err)
				os.Exit(1)
			}
			fmt.Printf("%s/%s: scalar=%d srv=%d speedup=%.2fx replays=%d RAW=%d WAR=%d WAW=%d barrier=%.2f%%\n",
				b.Name, ls.Shape.Name, lr.ScalarCycles, lr.SRVCycles, lr.Speedup,
				lr.ReplayRounds, lr.RAW, lr.WAR, lr.WAW, lr.BarrierFrac*100)
		}
		return
	}
	var m compiler.Mode
	switch *mode {
	case "scalar":
		m = compiler.ModeScalar
	case "srv":
		m = compiler.ModeSRV
	default:
		fmt.Fprintf(os.Stderr, "srvsim: unknown mode %q\n", *mode)
		os.Exit(1)
	}
	multi := *loopIdx < 0 && len(b.Loops) > 1
	for i, ls := range b.Loops {
		if *loopIdx >= 0 && i != *loopIdx {
			continue
		}
		if multi {
			obsTag = fmt.Sprintf("_%s_%d", b.Name, i)
		}
		if err := runOne(b.Name, ls, m, *seed+int64(i), *dis); err != nil {
			fmt.Fprintln(os.Stderr, "srvsim:", err)
			os.Exit(1)
		}
	}
}

// obsTag distinguishes observability output files when one invocation runs
// several loops ("" when a single loop runs).
var obsTag string

// tagPath inserts obsTag before the file extension of path.
func tagPath(path string) string {
	if obsTag == "" {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + obsTag + ext
}

// writeObsFile writes one observability artifact via emit, honouring "-" as
// stdout.
func writeObsFile(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(tagPath(path))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFile assembles and runs a standalone .s program.
func runFile(path string) error {
	srcBytes, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, data, err := isa.AssembleWithData(string(srcBytes))
	if err != nil {
		return err
	}
	im := mem.NewImage()
	for _, di := range data {
		for i, v := range di.Values {
			im.WriteInt(di.Addr+uint64(i*di.Elem), di.Elem, v)
		}
	}
	p := pipeline.New(pipeline.DefaultConfig(), prog, im)
	if err := p.Run(); err != nil {
		return err
	}
	st := p.Ctrl.Stats
	fmt.Printf("%s: cycles=%d insts=%d IPC=%.2f regions=%d replays=%d RAW=%d WAR=%d WAW=%d\n",
		path, p.Stats.Cycles, p.Stats.Committed, p.Stats.IPC(),
		st.Regions, st.Replays, st.RAWViol, st.WARViol, st.WAWViol)
	return nil
}

var (
	dumpStats   bool
	pipeview    int
	showRegions bool
	obs         *obsv.ObsFlags
)

func runOne(bench string, ls workloads.LoopSpec, mode compiler.Mode, seed int64, dis bool) error {
	l, im := ls.Instantiate(seed)
	c, err := compiler.Compile(l, im, mode)
	if err != nil {
		return err
	}
	if dis {
		fmt.Printf("--- %s/%s (%v) ---\n%s\n", bench, ls.Shape.Name, mode, c.Prog)
	}
	// The harness's configuration and cache warm-up, so the cycles printed
	// are the ones -mode compare and the figures report.
	p := harness.LoopPipeline(l, c.Prog, im)
	if pipeview > 0 {
		p.EnableTimeline()
	}
	if obs.TraceOut != "" {
		p.AttachTracer(obsv.NewTracer())
	}
	if obs.SampleEvery > 0 {
		p.EnableSampling(obs.SampleEvery)
	}
	if obs.ReplayProfile {
		p.EnableReplayProfile()
	}
	if err := p.Run(); err != nil {
		return err
	}
	fmt.Printf("%s/%s [%v]: cycles=%d insts=%d IPC=%.2f", bench, ls.Shape.Name, mode,
		p.Stats.Cycles, p.Stats.Committed, p.Stats.IPC())
	if mode == compiler.ModeSRV {
		st := p.Ctrl.Stats
		fmt.Printf(" regions=%d replays=%d RAW=%d WAR=%d WAW=%d fallbacks=%d barrier=%d",
			st.Regions, st.Replays, st.RAWViol, st.WARViol, st.WAWViol, st.Fallbacks,
			p.Stats.BarrierCycles)
	}
	fmt.Printf(" L1miss=%d L2miss=%d\n", p.Hier.L1.Stats.Misses, p.Hier.L2.Stats.Misses)
	if dumpStats {
		fmt.Println(p.DumpStats())
	}
	if pipeview > 0 {
		fmt.Print(p.RenderTimeline(0, pipeview))
	}
	if showRegions {
		printRegionDurations(p.RegionDurations())
	}
	return writeObservability(p)
}

// writeObservability exports the run's trace, cycle samples, metrics
// registry and per-PC replay profile as requested by the shared
// observability flags.
func writeObservability(p *pipeline.Pipeline) error {
	if t := p.Tracer(); t != nil {
		if err := writeObsFile(obs.TraceOut, t.WriteJSON); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if t.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "srvsim: trace buffer full, %d events dropped\n", t.Dropped())
		}
	}
	if s := p.Samples(); s != nil {
		emit := s.WriteCSV
		if filepath.Ext(obs.SampleOut) == ".json" {
			emit = s.WriteJSON
		}
		out := obs.SampleOut
		if out == "" {
			out = "-"
		}
		if err := writeObsFile(out, emit); err != nil {
			return fmt.Errorf("sample-out: %w", err)
		}
	}
	if obs.MetricsOut != "" {
		if err := writeObsFile(obs.MetricsOut, p.Metrics().WriteJSON); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if p.ReplayProfiling() {
		fmt.Print(p.RenderReplayProfile())
	}
	return nil
}

// printRegionDurations summarises the per-region cycle counts of a run.
func printRegionDurations(h *obsv.Histogram) {
	n := h.Total()
	if n == 0 {
		fmt.Println("regions: none recorded")
		return
	}
	fmt.Printf("regions: %d recorded, duration mean=%.1f max=%d cycles\n", n, h.Mean(), h.Max())
	for _, b := range h.Buckets() {
		hi := strconv.FormatInt(b.Hi, 10)
		if b.Hi < 0 {
			hi = "inf"
		}
		fmt.Printf("  %6d..%-6s %7d %s\n", b.Lo, hi, b.Count, strings.Repeat("#", int(b.Count*40/n)))
	}
}
