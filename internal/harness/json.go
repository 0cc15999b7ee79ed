package harness

import (
	"context"
	"encoding/json"
	"io"

	"srvsim/internal/power"
	"srvsim/internal/stats"
	"srvsim/internal/workloads"
)

// JSONReport is the machine-readable form of the whole evaluation, for
// downstream plotting and regression tracking.
type JSONReport struct {
	SchemaVersion int              `json:"schema_version"`
	CodeVersion   string           `json:"code_version"`
	Seed          int64            `json:"seed"`
	Benchmarks    []JSONBenchmark  `json:"benchmarks"`
	Summary       JSONSummary      `json:"summary"`
	LimitStudy    []JSONLimitEntry `json:"limit_study"`
	Failures      []JSONFailure    `json:"failures,omitempty"`
}

// JSONFailure is one contained simulation failure (see SimError). Its loop
// is absent from the benchmark's loops array and excluded from aggregates.
type JSONFailure struct {
	Bench    string `json:"bench"`
	Loop     string `json:"loop"`
	Variant  string `json:"variant"`
	Kind     string `json:"kind"`
	Seed     int64  `json:"seed"`
	Cycle    int64  `json:"cycle,omitempty"`
	Message  string `json:"message"`
	Artifact string `json:"artifact,omitempty"`
}

// JSONBenchmark is one benchmark's measurements.
type JSONBenchmark struct {
	Name         string     `json:"name"`
	Suite        string     `json:"suite"`
	Coverage     float64    `json:"coverage"`
	LoopSpeedup  float64    `json:"loop_speedup"`
	WholeProgram float64    `json:"whole_program_speedup"`
	BarrierFrac  float64    `json:"barrier_fraction"`
	PowerDelta   float64    `json:"power_delta_percent"`
	Loops        []JSONLoop `json:"loops"`
}

// JSONLoop is one loop's measurements.
type JSONLoop struct {
	Name          string  `json:"name"`
	ScalarCycles  int64   `json:"scalar_cycles"`
	SRVCycles     int64   `json:"srv_cycles"`
	Speedup       float64 `json:"speedup"`
	Estimated     float64 `json:"estimated_speedup"`
	Replays       int64   `json:"replays"`
	RAW           int64   `json:"raw_violations"`
	WAR           int64   `json:"war_violations"`
	WAW           int64   `json:"waw_violations"`
	MemAccesses   int     `json:"mem_accesses"`
	GatherScatter int     `json:"gather_scatter"`
	Regions       int64   `json:"regions"`
	RegionDurMean float64 `json:"region_duration_mean_cycles"`
	RegionDurMax  int64   `json:"region_duration_max_cycles"`
	LSUHighWater  int     `json:"lsu_high_water"`
}

// JSONSummary holds the headline aggregates.
type JSONSummary struct {
	AvgLoopSpeedup     float64 `json:"avg_loop_speedup"`
	MaxLoopSpeedup     float64 `json:"max_loop_speedup"`
	GeomeanWholeProg   float64 `json:"geomean_whole_program"`
	MaxWholeProg       float64 `json:"max_whole_program"`
	BenchesWithViol    int     `json:"benchmarks_with_violations"`
	LoopsAtMost10Acc   float64 `json:"loops_with_at_most_10_accesses"`
	SRVFlexVecMeanRate float64 `json:"srv_flexvec_mean_ratio"`
}

// JSONLimitEntry is one benchmark's §II limit-study numbers.
type JSONLimitEntry struct {
	Name          string  `json:"name"`
	PotentialAll  float64 `json:"potential_all"`
	PotentialSafe float64 `json:"potential_safe_only"`
	UnknownFrac   float64 `json:"unknown_fraction"`
}

// WriteJSON runs the full evaluation and writes the structured report.
func (e *Env) WriteJSON(ctx context.Context, seed int64, w io.Writer) error {
	rs, err := e.Measure(ctx, seed)
	if err != nil {
		return err
	}
	rep := JSONReport{SchemaVersion: SchemaVersion, CodeVersion: CodeVersion, Seed: seed}
	m := power.Default()
	var speedups, wholes []float64
	h := stats.NewHistogram()
	for _, br := range rs.Bench {
		jb := JSONBenchmark{
			Name: br.Bench.Name, Suite: br.Bench.Suite,
			Coverage: br.Bench.Coverage, LoopSpeedup: br.Speedup,
			WholeProgram: br.Whole, BarrierFrac: br.Barrier,
		}
		var seq, srv power.Sample
		raw := int64(0)
		for _, lr := range br.Loops {
			jb.Loops = append(jb.Loops, JSONLoop{
				Name: lr.Loop, ScalarCycles: lr.ScalarCycles, SRVCycles: lr.SRVCycles,
				Speedup: lr.Speedup, Estimated: lr.Estimated, Replays: lr.ReplayRounds,
				RAW: lr.RAW, WAR: lr.WAR, WAW: lr.WAW,
				MemAccesses: lr.MemAccesses, GatherScatter: lr.GatherScatter,
				Regions: lr.Regions, RegionDurMean: lr.RegionDurMean,
				RegionDurMax: lr.RegionDurMax, LSUHighWater: lr.LSUHighWater,
			})
			seq.CAMLookups += lr.SeqCam.CAMLookups
			seq.Cycles += lr.SeqCam.Cycles
			srv.CAMLookups += lr.SRVCam.CAMLookups
			srv.Cycles += lr.SRVCam.Cycles
			raw += lr.RAW
			h.Add(lr.MemAccesses)
		}
		jb.PowerDelta = m.DeltaPercent(srv, seq)
		rep.Benchmarks = append(rep.Benchmarks, jb)
		speedups = append(speedups, br.Speedup)
		wholes = append(wholes, br.Whole)
		if raw > 0 {
			rep.Summary.BenchesWithViol++
		}
	}
	rep.Summary.AvgLoopSpeedup = stats.Mean(speedups)
	rep.Summary.MaxLoopSpeedup = stats.Max(speedups)
	rep.Summary.GeomeanWholeProg = stats.Geomean(wholes)
	rep.Summary.MaxWholeProg = stats.Max(wholes)
	rep.Summary.LoopsAtMost10Acc = h.CumulativeAtMost(10)

	var ratios []float64
	for _, b := range workloads.All() {
		_, ratio, err := e.RunFlexVec(ctx, b, seed)
		if err != nil {
			return err
		}
		ratios = append(ratios, ratio)
		s, err := e.RunLimit(ctx, b, seed)
		if err != nil {
			return err
		}
		rep.LimitStudy = append(rep.LimitStudy, JSONLimitEntry{
			Name: b.Name, PotentialAll: s.PotentialAll,
			PotentialSafe: s.PotentialSafeOnly, UnknownFrac: s.UnknownFrac,
		})
	}
	rep.Summary.SRVFlexVecMeanRate = stats.Mean(ratios)

	fails := rs.Failures()
	for _, se := range fails {
		rep.Failures = append(rep.Failures, JSONFailure{
			Bench: se.Bench, Loop: se.Loop, Variant: se.Variant,
			Kind: se.Kind.String(), Seed: se.Seed, Cycle: se.Cycle,
			Message: se.Msg, Artifact: se.Artifact,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	// The report (with its failures array) is written either way; the typed
	// error tells the CLI to exit non-zero without discarding the output.
	if len(fails) > 0 {
		return &FleetError{Failures: fails}
	}
	return nil
}
