package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"srvsim/internal/flexvec"
	"srvsim/internal/obsv"
	"srvsim/internal/pipeline"
	"srvsim/internal/trace"
	"srvsim/internal/workloads"
)

// The harness exposes one narrow execution contract — Env.Run(ctx, Request)
// — over its whole family of experiment kinds, the same way the paper's SRV
// design exposes srv_start/srv_end over a complex speculative core. Every
// public Run* helper and every CLI routes through it, which is what lets a
// network daemon (internal/serve) queue, deduplicate and cache simulations
// without knowing anything about loops, benchmarks or fuzz trials.

// Mode selects what a Request executes.
type Mode string

const (
	// ModeLoop measures one loop's scalar and SRV variants (Env.RunLoop).
	ModeLoop Mode = "loop"
	// ModeBenchmark measures every loop of a benchmark (Env.RunBenchmark).
	ModeBenchmark Mode = "benchmark"
	// ModeFlexVec runs the Fig 13 FlexVec comparison (Env.RunFlexVec).
	ModeFlexVec Mode = "flexvec"
	// ModeLimit runs the §II limit study (Env.RunLimit).
	ModeLimit Mode = "limit"
	// ModeFuzz runs one differential-fuzzer trial (Env.RunFuzzTrial).
	ModeFuzz Mode = "fuzz"
)

// ErrInvalidRequest tags request-validation failures; internal/serve maps it
// to HTTP 400.
var ErrInvalidRequest = errors.New("invalid request")

// Request is the typed, serialisable identity of one simulation job:
// workload + pipeline configuration + seed + mode. Two requests with equal
// canonical forms are guaranteed to produce bit-identical Results (the
// simulator is deterministic by construction), which is what makes
// content-addressed caching sound.
type Request struct {
	// SchemaVersion of the encoding; zero is filled with the current
	// SchemaVersion during canonicalisation.
	SchemaVersion int  `json:"schema_version"`
	Mode          Mode `json:"mode"`

	// Bench names the workload. For ModeBenchmark/ModeFlexVec/ModeLimit it
	// selects the benchmark (resolved against workloads.All unless BenchSpec
	// is set); for ModeLoop it is the attribution label.
	Bench string `json:"bench,omitempty"`
	// Loop is the inline loop specification for ModeLoop. When nil, the
	// loop is resolved as Bench's LoopIndex-th loop.
	Loop *workloads.LoopSpec `json:"loop,omitempty"`
	// LoopIndex selects a loop of Bench for ModeLoop when Loop is nil.
	LoopIndex int `json:"loop_index,omitempty"`
	// BenchSpec is the inline benchmark specification. When nil, Bench is
	// resolved against the registry; canonicalisation always inlines the
	// spec so named and inline requests content-address identically.
	BenchSpec *workloads.Benchmark `json:"bench_spec,omitempty"`

	Seed int64 `json:"seed"`
	// Config overrides the harness's default pipeline configuration
	// (ablations, sweeps). nil selects the default.
	Config *pipeline.Config `json:"config,omitempty"`

	// Tenant names the principal the request is submitted on behalf of
	// (internal/serve's fair queueing, quotas and brownout key off it; the
	// X-Srv-Tenant header overrides it at the HTTP edge). It is additive
	// metadata only: the empty string is the default tenant, so seed-era wire
	// bytes are unchanged, and it is deliberately EXCLUDED from CacheKey —
	// the simulator is tenant-blind, so identical simulations from different
	// tenants share one content address and one cached Result.
	Tenant string `json:"tenant,omitempty"`

	// Fuzz-mode parameters (ModeFuzz): the trial is regenerated from
	// (Seed, Trial) exactly as srvfuzz does.
	Trial      int  `json:"trial,omitempty"`
	Affine     bool `json:"affine,omitempty"`
	Interrupts bool `json:"interrupts,omitempty"`
}

// Option mutates a Request under construction (Env.RunLoop's variadic
// options).
type Option func(*Request)

// WithConfig runs the request under a custom pipeline configuration instead
// of the harness default (ablations, parameter sweeps).
func WithConfig(c pipeline.Config) Option {
	return func(r *Request) {
		cc := c
		r.Config = &cc
	}
}

// Canonical resolves names to inline specs, stamps the schema version and
// validates the request. Canonical forms are what Run executes and what
// CacheKey hashes, so a request submitted by benchmark name and the same
// request submitted with the spec inlined are the same cache entry.
func (r Request) Canonical() (Request, error) {
	if r.SchemaVersion == 0 {
		r.SchemaVersion = SchemaVersion
	}
	switch r.Mode {
	case ModeLoop:
		if r.Loop == nil {
			b, ok := workloads.ByName(r.Bench)
			if !ok {
				return r, fmt.Errorf("harness: %w: unknown benchmark %q", ErrInvalidRequest, r.Bench)
			}
			if r.LoopIndex < 0 || r.LoopIndex >= len(b.Loops) {
				return r, fmt.Errorf("harness: %w: loop_index %d out of range for %s (%d loops)",
					ErrInvalidRequest, r.LoopIndex, r.Bench, len(b.Loops))
			}
			ls := b.Loops[r.LoopIndex]
			r.Loop = &ls
		}
		if err := checkShape(&r.Loop.Shape); err != nil {
			return r, err
		}
	case ModeBenchmark, ModeFlexVec, ModeLimit:
		if r.BenchSpec == nil {
			b, ok := workloads.ByName(r.Bench)
			if !ok {
				return r, fmt.Errorf("harness: %w: unknown benchmark %q", ErrInvalidRequest, r.Bench)
			}
			r.BenchSpec = &b
		}
		if r.Bench == "" {
			r.Bench = r.BenchSpec.Name
		}
		for i := range r.BenchSpec.Loops {
			if err := checkShape(&r.BenchSpec.Loops[i].Shape); err != nil {
				return r, err
			}
		}
		for i := range r.BenchSpec.Limit {
			if err := checkShape(&r.BenchSpec.Limit[i].Shape); err != nil {
				return r, err
			}
		}
	case ModeFuzz:
		if r.Trial < 0 {
			return r, fmt.Errorf("harness: %w: negative fuzz trial %d", ErrInvalidRequest, r.Trial)
		}
	default:
		return r, fmt.Errorf("harness: %w: unknown mode %q", ErrInvalidRequest, r.Mode)
	}
	if r.Config != nil {
		if err := checkConfig(r.Config); err != nil {
			return r, err
		}
		if r.Config.MaxCycles == 0 {
			// The pipeline reads a zero budget as its own, four times larger
			// fallback; the request means the harness default.
			c := *r.Config
			c.MaxCycles = MaxConfigCycles
			r.Config = &c
		}
	}
	return r, nil
}

// Request configuration bounds. The simulator sizes its structures and
// scheduler lists from these fields, so Canonical refuses a configuration
// outside them rather than let one request build or run an outsized
// machine. The evaluation's largest sweep points sit far inside them.
const (
	MaxConfigWidth         = 64   // Config.Width
	MaxConfigFrontEndDelay = 64   // Config.FrontEndDelay; with Width it sizes the fetch queue
	MaxConfigQueue         = 4096 // Config.IQSize, ROBSize and LSQSize
	MaxConfigCycles        = defaultMaxCycles
)

// checkConfig validates a request's pipeline configuration against the
// bounds above.
func checkConfig(c *pipeline.Config) error {
	sizes := [...]struct {
		name      string
		v, lo, hi int
	}{
		{"Width", c.Width, 1, MaxConfigWidth},
		{"FrontEndDelay", c.FrontEndDelay, 0, MaxConfigFrontEndDelay},
		{"IQSize", c.IQSize, 1, MaxConfigQueue},
		{"ROBSize", c.ROBSize, 1, MaxConfigQueue},
		{"LSQSize", c.LSQSize, 1, MaxConfigQueue},
	}
	for _, s := range sizes {
		if s.v < s.lo || s.v > s.hi {
			return fmt.Errorf("harness: %w: config %s %d outside [%d, %d]", ErrInvalidRequest, s.name, s.v, s.lo, s.hi)
		}
	}
	if c.MaxCycles > MaxConfigCycles {
		return fmt.Errorf("harness: %w: config MaxCycles %d above %d", ErrInvalidRequest, c.MaxCycles, int64(MaxConfigCycles))
	}
	return nil
}

// Loop-shape bounds. Building and seeding a loop allocates and fills every
// array its shape names, so Canonical refuses an inline shape outside them,
// or one whose seeding would panic, before it reaches a worker. The shipped
// workloads peak at trip 8192, range 32768, 8 terms, 2 statements and, by
// checkShape's estimate, 3 MB of arrays.
const (
	MaxShapeTrip  = 1 << 20   // Shape.Trip
	MaxShapeRange = 1 << 20   // Shape.Range
	MaxShapeTerms = 16        // Shape.Stmts, Contig, Gathers and Chain
	MaxShapeBytes = 256 << 20 // upper estimate of the bytes of a shape's arrays
)

// checkShape validates one loop shape against the bounds above. It
// allocates nothing unless it refuses the shape.
func checkShape(s *workloads.Shape) error {
	fields := [...]struct {
		name      string
		v, lo, hi int
	}{
		{"Trip", s.Trip, 1, MaxShapeTrip},
		{"Range", s.Range, 0, MaxShapeRange},
		{"Stmts", s.Stmts, 0, MaxShapeTerms},
		{"Contig", s.Contig, 0, MaxShapeTerms},
		{"Gathers", s.Gathers, 0, MaxShapeTerms},
		{"Chain", s.Chain, 0, MaxShapeTerms},
		{"Pattern", int(s.Pattern), int(workloads.PatIdentity), int(workloads.PatSpreadHigh)},
	}
	for _, f := range fields {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("harness: %w: loop %q shape %s %d outside [%d, %d]",
				ErrInvalidRequest, s.Name, f.name, f.v, f.lo, f.hi)
		}
	}
	switch s.Elem {
	case 0, 1, 2, 4, 8:
	default:
		return fmt.Errorf("harness: %w: loop %q shape Elem %d not 1, 2, 4 or 8", ErrInvalidRequest, s.Name, s.Elem)
	}
	// Each statement names at most its contiguous sources, two arrays per
	// gather, a guard and a destination, besides the shared a and x; no
	// array exceeds max(Trip, Range)+32 elements of 8 bytes.
	arrays := 2 + max(s.Stmts, 1)*(s.Contig+2*s.Gathers+2)
	if bytes := arrays * (max(s.Trip, s.Range) + 32) * 8; bytes > MaxShapeBytes {
		return fmt.Errorf("harness: %w: loop %q shape needs up to %d bytes of arrays, above %d",
			ErrInvalidRequest, s.Name, bytes, MaxShapeBytes)
	}
	return nil
}

// effectiveConfig returns the pipeline configuration the request runs under.
func (r Request) effectiveConfig() pipeline.Config {
	if r.Config != nil {
		return *r.Config
	}
	return cfg()
}

// CacheKey returns the content address of the request: a SHA-256 over the
// canonical form (workload spec inlined, configuration defaults applied)
// plus the CodeVersion, hex-encoded. Identical simulations hash identically
// regardless of how they were spelled; any change to workload, seed,
// configuration, mode or simulator version changes the key.
func (r Request) CacheKey() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	// The key struct fixes the hashed field set explicitly: presentation
	// fields (LoopIndex, pre-resolution Bench spelling) and the Tenant
	// identity (results are tenant-independent; all tenants share one cache
	// entry per simulation) are excluded, and the effective configuration is
	// always hashed in full so "nil config" and "explicitly default config"
	// collide as they must.
	key := struct {
		Schema     int                  `json:"schema"`
		Code       string               `json:"code"`
		Mode       Mode                 `json:"mode"`
		Bench      string               `json:"bench"`
		Loop       *workloads.LoopSpec  `json:"loop,omitempty"`
		BenchSpec  *workloads.Benchmark `json:"bench_spec,omitempty"`
		Seed       int64                `json:"seed"`
		Config     pipeline.Config      `json:"config"`
		Trial      int                  `json:"trial"`
		Affine     bool                 `json:"affine"`
		Interrupts bool                 `json:"interrupts"`
	}{
		Schema: c.SchemaVersion, Code: CodeVersion, Mode: c.Mode,
		Bench: c.Bench, Loop: c.Loop, BenchSpec: c.BenchSpec,
		Seed: c.Seed, Config: c.effectiveConfig(),
		Trial: c.Trial, Affine: c.Affine, Interrupts: c.Interrupts,
	}
	data, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("harness: hashing request: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// BenchSummary is the wire form of one benchmark's measurements (the
// serialisable core of BenchResult: the workload spec and rich *SimError
// values travel separately).
type BenchSummary struct {
	Name    string       `json:"name"`
	Suite   string       `json:"suite"`
	Loops   []LoopResult `json:"loops"`
	Speedup float64      `json:"speedup"`
	Whole   float64      `json:"whole_program_speedup"`
	Barrier float64      `json:"barrier_fraction"`
}

// FlexVecSummary is the wire form of an Env.RunFlexVec measurement.
type FlexVecSummary struct {
	Aggregate     flexvec.Result `json:"aggregate"`
	WeightedRatio float64        `json:"weighted_ratio"`
}

// FailureRecord is the wire form of one contained *SimError. Unlike the
// -json report's failure rows it keeps the snapshot and stack, so a remote
// fleet loses no forensics (only the wrapped Go error value is dropped).
type FailureRecord struct {
	Bench    string `json:"bench"`
	Loop     string `json:"loop"`
	Variant  string `json:"variant"`
	Kind     string `json:"kind"`
	Seed     int64  `json:"seed"`
	Cycle    int64  `json:"cycle,omitempty"`
	Message  string `json:"message"`
	Snapshot string `json:"snapshot,omitempty"`
	Stack    string `json:"stack,omitempty"`
	Artifact string `json:"artifact,omitempty"`
	// Checkpoint is the serialised machine state at the failure (deadlocks),
	// restorable with pipeline.Restore for single-step forensics.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// failureRecord flattens one SimError for the wire.
func failureRecord(se *SimError) FailureRecord {
	return FailureRecord{
		Bench: se.Bench, Loop: se.Loop, Variant: se.Variant,
		Kind: se.Kind.String(), Seed: se.Seed, Cycle: se.Cycle,
		Message: se.Msg, Snapshot: se.Snapshot, Stack: se.Stack,
		Artifact: se.Artifact, Checkpoint: se.Checkpoint,
	}
}

// Record flattens the SimError to its wire form (the serve layer attaches
// it to failed jobs).
func (se *SimError) Record() FailureRecord { return failureRecord(se) }

// SimError rebuilds the typed error from its wire form.
func (fr FailureRecord) SimError() *SimError {
	kind, _ := ParseFailKind(fr.Kind)
	return &SimError{
		Kind: kind, Bench: fr.Bench, Loop: fr.Loop, Variant: fr.Variant,
		Seed: fr.Seed, Cycle: fr.Cycle, Msg: fr.Message,
		Snapshot: fr.Snapshot, Stack: fr.Stack, Artifact: fr.Artifact,
		Checkpoint: fr.Checkpoint,
	}
}

// Result is the versioned response of Run: exactly one mode-specific payload
// is populated, plus the contained failures of graceful-degradation modes.
// The zero-value-omitted encoding is stable under SchemaVersion, and
// identical Requests produce byte-identical encoded Results.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	CodeVersion   string `json:"code_version"`
	Mode          Mode   `json:"mode"`

	Loop    *LoopResult      `json:"loop,omitempty"`
	Bench   *BenchSummary    `json:"bench,omitempty"`
	FlexVec *FlexVecSummary  `json:"flexvec,omitempty"`
	Limit   *trace.Study     `json:"limit,omitempty"`
	Fuzz    *FuzzTrialResult `json:"fuzz,omitempty"`

	// Failures holds the contained per-loop failures of ModeBenchmark runs
	// (the loops are absent from Bench.Loops and the aggregates).
	Failures []FailureRecord `json:"failures,omitempty"`

	// native carries the local run's original BenchResult (with live
	// *SimError values) past the wrapper boundary, so in-process callers
	// lose nothing to serialisation. nil after a wire round trip.
	native *BenchResult
}

// benchResult rebuilds a BenchResult for the given benchmark: the local
// original when available, otherwise a reconstruction from the wire form.
func (r Result) benchResult(b workloads.Benchmark) (BenchResult, error) {
	if r.native != nil {
		return *r.native, nil
	}
	if r.Bench == nil {
		return BenchResult{Bench: b}, fmt.Errorf("harness: result carries no benchmark payload (mode %q)", r.Mode)
	}
	out := BenchResult{
		Bench: b, Loops: r.Bench.Loops,
		Speedup: r.Bench.Speedup, Whole: r.Bench.Whole, Barrier: r.Bench.Barrier,
	}
	for _, fr := range r.Failures {
		out.Failures = append(out.Failures, fr.SimError())
	}
	return out, nil
}

// Executor is a pluggable execution backend for canonical Requests
// (Env.Executor). nil runs in-process; serve.Client provides a remote one so
// a CLI can farm its whole fleet out to a srvd daemon.
type Executor func(ctx context.Context, req Request) (Result, error)

// ProgressEvent reports coarse progress of a running request (per-loop
// completion for benchmark mode). Done counts monotonically; arrival order
// across loops follows worker scheduling.
type ProgressEvent struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

type progressKey struct{}

// WithProgress derives a context whose Run invocations report progress
// through fn. fn may be called concurrently from worker goroutines.
func WithProgress(ctx context.Context, fn func(ProgressEvent)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// notifyProgress emits one progress event if the context carries a sink.
func notifyProgress(ctx context.Context, stage string, done, total int) {
	if fn, ok := ctx.Value(progressKey{}).(func(ProgressEvent)); ok && fn != nil {
		fn(ProgressEvent{Stage: stage, Done: done, Total: total})
	}
}

// Run is the single execution path of the harness: it canonicalises and
// validates the request, dispatches to the Env's Executor (remote fleets)
// or runs in-process, and returns the versioned Result. Context
// cancellation aborts the underlying simulations cooperatively (the
// pipeline polls every few thousand cycles).
func (e *Env) Run(ctx context.Context, req Request) (Result, error) {
	creq, err := req.Canonical()
	if err != nil {
		return Result{}, err
	}
	if e.Executor != nil {
		// When the Env traces, remote submissions ride under its fleet-root
		// trace: the serve.Client reads the span from the context and stamps
		// the matching traceparent.
		if _, ok := obsv.SpanFromContext(ctx); !ok && e.spans != nil {
			ctx = obsv.ContextWithSpan(ctx, e.root)
		}
		return e.Executor(ctx, creq)
	}
	return e.runLocal(ctx, creq)
}

// runLocal executes a canonical request in-process.
func (e *Env) runLocal(ctx context.Context, req Request) (Result, error) {
	res := Result{SchemaVersion: SchemaVersion, CodeVersion: CodeVersion, Mode: req.Mode}
	switch req.Mode {
	case ModeLoop:
		lr, err := e.runLoop(ctx, req.effectiveConfig(), req.Bench, *req.Loop, req.Seed, false)
		if err != nil {
			return res, err
		}
		res.Loop = &lr
	case ModeBenchmark:
		br, err := e.runBenchmark(ctx, *req.BenchSpec, req.effectiveConfig(), req.Seed)
		if err != nil {
			return res, err
		}
		res.Bench = &BenchSummary{
			Name: br.Bench.Name, Suite: br.Bench.Suite, Loops: br.Loops,
			Speedup: br.Speedup, Whole: br.Whole, Barrier: br.Barrier,
		}
		for _, se := range br.Failures {
			res.Failures = append(res.Failures, failureRecord(se))
		}
		res.native = &br
	case ModeFlexVec:
		agg, ratio, err := e.runFlexVec(ctx, *req.BenchSpec, req.Seed)
		if err != nil {
			return res, err
		}
		res.FlexVec = &FlexVecSummary{Aggregate: agg, WeightedRatio: ratio}
	case ModeLimit:
		st, err := e.runLimit(*req.BenchSpec, req.Seed)
		if err != nil {
			return res, err
		}
		res.Limit = &st
	case ModeFuzz:
		fr, err := runFuzzTrial(ctx, req.Seed, req.Trial, req.Affine, req.Interrupts)
		if err != nil {
			return res, err
		}
		res.Fuzz = &fr
	}
	return res, nil
}
