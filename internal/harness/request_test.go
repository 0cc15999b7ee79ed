package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// testLoopSpec is a small, fast loop used by the API tests.
func testLoopSpec() workloads.LoopSpec {
	return workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
		Name: "reqtest", Trip: 64, Contig: 1, Chain: 1,
		Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
	}}
}

// The compact wire form of a Request is part of the public API contract:
// this golden string is what a curl user or a non-Go client writes, so a
// change here is a schema change and must bump SchemaVersion.
func TestRequestGoldenJSON(t *testing.T) {
	req := Request{Mode: ModeFuzz, Seed: 7, Trial: 3, Affine: true}
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(creq)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"schema_version":1,"mode":"fuzz","seed":7,"trial":3,"affine":true}`
	if string(data) != golden {
		t.Fatalf("canonical fuzz request encodes as\n  %s\nwant\n  %s", data, golden)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, creq) {
		t.Fatalf("round trip changed the request:\n  got  %+v\n  want %+v", back, creq)
	}
}

func TestRequestRoundTripLossless(t *testing.T) {
	ls := testLoopSpec()
	pcfg := cfg()
	pcfg.ROBSize = 96
	req := Request{Mode: ModeLoop, Bench: "api", Loop: &ls, Seed: 11, Config: &pcfg}
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if creq.SchemaVersion != SchemaVersion {
		t.Fatalf("canonicalisation stamped schema_version %d, want %d", creq.SchemaVersion, SchemaVersion)
	}
	data, err := json.Marshal(creq)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, creq) {
		t.Fatalf("round trip changed the request:\n  got  %+v\n  want %+v", back, creq)
	}
	// Canonicalisation must be idempotent, or cache keys would drift.
	again, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, creq) {
		t.Fatalf("canonicalisation is not idempotent:\n  got  %+v\n  want %+v", again, creq)
	}
}

func TestResultRoundTripLossless(t *testing.T) {
	ls := testLoopSpec()
	res, err := testEnv().Run(context.Background(), Request{Mode: ModeLoop, Bench: "api", Loop: &ls, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != SchemaVersion || res.CodeVersion != CodeVersion {
		t.Fatalf("result carries schema %d / code %q, want %d / %q",
			res.SchemaVersion, res.CodeVersion, SchemaVersion, CodeVersion)
	}
	if res.Loop == nil || res.Loop.Speedup <= 0 {
		t.Fatalf("loop result missing or empty: %+v", res.Loop)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("result round trip is lossy:\n  got  %+v\n  want %+v", back, res)
	}
	// Encoding must be deterministic: the cache stores bytes.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("re-encoding a round-tripped result changed its bytes")
	}
}

func TestFailureRecordRoundTrip(t *testing.T) {
	se := &SimError{
		Kind: KindDeadlock, Bench: "is", Loop: "rank", Variant: "srv",
		Seed: 7, Cycle: 1234, Msg: "no commit in window",
		Snapshot: "pc=3 rob=12", Stack: "goroutine 1 [...]", Artifact: "crashes/x.json",
	}
	got := se.Record().SimError()
	if !reflect.DeepEqual(got, se) {
		t.Fatalf("failure record round trip is lossy:\n  got  %+v\n  want %+v", got, se)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	b := workloads.All()[0]
	named := Request{Mode: ModeBenchmark, Bench: b.Name, Seed: 7}
	inline := Request{Mode: ModeBenchmark, BenchSpec: &b, Seed: 7}
	kNamed, err := named.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kInline, err := inline.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kNamed != kInline {
		t.Fatalf("named (%s) and inline (%s) spellings of the same benchmark hash differently", kNamed, kInline)
	}

	// A nil config and the explicit default configuration are the same
	// simulation, so they must share a cache entry.
	def := cfg()
	explicit := named
	explicit.Config = &def
	kExplicit, err := explicit.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kExplicit != kNamed {
		t.Fatal("explicit default config hashes differently from nil config")
	}

	// Any semantic change must change the key.
	ls := testLoopSpec()
	mutations := map[string]Request{
		"seed":        {Mode: ModeBenchmark, Bench: b.Name, Seed: 8},
		"mode":        {Mode: ModeFlexVec, Bench: b.Name, Seed: 7},
		"benchmark":   {Mode: ModeBenchmark, Bench: workloads.All()[1].Name, Seed: 7},
		"loop mode":   {Mode: ModeLoop, Bench: b.Name, Seed: 7},
		"loop shape":  {Mode: ModeLoop, Bench: b.Name, Loop: &ls, Seed: 7},
		"fuzz":        {Mode: ModeFuzz, Seed: 7},
		"fuzz trial":  {Mode: ModeFuzz, Seed: 7, Trial: 1},
		"fuzz affine": {Mode: ModeFuzz, Seed: 7, Affine: true},
	}
	tweaked := cfg()
	tweaked.ROBSize++
	cfgReq := named
	cfgReq.Config = &tweaked
	mutations["config"] = cfgReq

	seen := map[string]string{kNamed: "base"}
	for label, req := range mutations {
		k, err := req.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%q collides with %q on cache key %s", label, prev, k)
		}
		seen[k] = label
	}
}

// RunLoop and Run(Request{ModeLoop}) are the same execution path; the
// wrapper must add and lose nothing.
func TestRunLoopWrapperEquivalence(t *testing.T) {
	ls := testLoopSpec()
	env := testEnv()
	direct, err := env.RunLoop(context.Background(), "api", ls, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Run(context.Background(), Request{Mode: ModeLoop, Bench: "api", Loop: &ls, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, *res.Loop) {
		t.Fatalf("RunLoop and Run(Request) disagree:\n  %+v\n  %+v", direct, *res.Loop)
	}

	pcfg := cfg()
	pcfg.ScalarLat += 3
	withOpt, err := env.RunLoop(context.Background(), "api", ls, 7, WithConfig(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	if withOpt.ScalarCycles == direct.ScalarCycles {
		t.Fatal("config override had no effect (scalar latency change should alter cycles)")
	}
}

// TestCanonicalBoundsConfig pins the request-config bounds: sizes must be
// positive and within their caps, and the cycle budget may not exceed the
// harness default.
func TestCanonicalBoundsConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *pipeline.Config)
		ok   bool
	}{
		{"default", func(c *pipeline.Config) {}, true},
		{"width at cap", func(c *pipeline.Config) { c.Width = MaxConfigWidth }, true},
		{"front-end delay at cap", func(c *pipeline.Config) { c.FrontEndDelay = MaxConfigFrontEndDelay }, true},
		{"front-end delay zero", func(c *pipeline.Config) { c.FrontEndDelay = 0 }, true},
		{"sizes at cap", func(c *pipeline.Config) {
			c.IQSize, c.ROBSize, c.LSQSize = MaxConfigQueue, MaxConfigQueue, MaxConfigQueue
		}, true},
		{"budget at cap", func(c *pipeline.Config) { c.MaxCycles = MaxConfigCycles }, true},
		{"budget default", func(c *pipeline.Config) { c.MaxCycles = 0 }, true},
		{"width zero", func(c *pipeline.Config) { c.Width = 0 }, false},
		{"width over cap", func(c *pipeline.Config) { c.Width = MaxConfigWidth + 1 }, false},
		{"front-end delay negative", func(c *pipeline.Config) { c.FrontEndDelay = -1 }, false},
		{"front-end delay over cap", func(c *pipeline.Config) { c.FrontEndDelay = MaxConfigFrontEndDelay + 1 }, false},
		{"front-end delay huge", func(c *pipeline.Config) { c.FrontEndDelay = 1 << 40 }, false},
		{"iq negative", func(c *pipeline.Config) { c.IQSize = -1 }, false},
		{"iq over cap", func(c *pipeline.Config) { c.IQSize = MaxConfigQueue + 1 }, false},
		{"rob zero", func(c *pipeline.Config) { c.ROBSize = 0 }, false},
		{"rob over cap", func(c *pipeline.Config) { c.ROBSize = 1 << 20 }, false},
		{"lsq zero", func(c *pipeline.Config) { c.LSQSize = 0 }, false},
		{"lsq over cap", func(c *pipeline.Config) { c.LSQSize = MaxConfigQueue + 1 }, false},
		{"budget over cap", func(c *pipeline.Config) { c.MaxCycles = MaxConfigCycles + 1 }, false},
		{"pipeline default budget", func(c *pipeline.Config) { c.MaxCycles = pipeline.DefaultConfig().MaxCycles }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg()
			tc.mut(&c)
			req := Request{Mode: ModeBenchmark, Bench: "is", Seed: 7, Config: &c}
			in := c
			canon, err := req.Canonical()
			if tc.ok && err != nil {
				t.Fatalf("valid config refused: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("config accepted or refused untyped: %v", err)
			}
			if !tc.ok {
				return
			}
			// The canonical budget is the one the run honours: 0 selects
			// the harness default, not the pipeline's larger fallback.
			want := in.MaxCycles
			if want == 0 {
				want = MaxConfigCycles
			}
			if canon.Config.MaxCycles != want {
				t.Fatalf("canonical MaxCycles = %d, want %d", canon.Config.MaxCycles, want)
			}
			if c != in {
				t.Fatal("Canonical modified the caller's config")
			}
		})
	}
	// A nil config is the harness default and needs no check.
	if _, err := (Request{Mode: ModeBenchmark, Bench: "is", Seed: 7}).Canonical(); err != nil {
		t.Fatal(err)
	}
}

// poisonShape is a loop whose negative index range makes seeding its data
// panic (rand.Intn of a negative bound).
func poisonShape() workloads.Shape {
	return workloads.Shape{Name: "p", Trip: 16, Range: -5, Pattern: workloads.PatRare, StoreVia: true}
}

// TestCanonicalBoundsShape pins the loop-shape bounds, for an inline loop
// and for every loop and limit-study entry of an inline benchmark. Shapes
// at the caps go through Canonical only: running them would be slow.
func TestCanonicalBoundsShape(t *testing.T) {
	base := testLoopSpec().Shape
	with := func(mut func(s *workloads.Shape)) workloads.Shape {
		s := base
		mut(&s)
		return s
	}
	cases := []struct {
		name  string
		shape workloads.Shape
		ok    bool
		run   bool // also through Env.Run
	}{
		{"test loop", base, true, true},
		{"trip at cap", with(func(s *workloads.Shape) { s.Trip = MaxShapeTrip }), true, false},
		{"range at cap", with(func(s *workloads.Shape) { s.Range = MaxShapeRange }), true, false},
		{"terms at cap", with(func(s *workloads.Shape) {
			s.Stmts, s.Contig, s.Gathers, s.Chain = MaxShapeTerms, MaxShapeTerms, MaxShapeTerms, MaxShapeTerms
		}), true, false},
		{"elem 8", with(func(s *workloads.Shape) { s.Elem = 8 }), true, false},
		{"last pattern", with(func(s *workloads.Shape) { s.Pattern = workloads.PatSpreadHigh }), true, false},
		{"negative range", poisonShape(), false, true},
		{"trip zero", with(func(s *workloads.Shape) { s.Trip = 0 }), false, true},
		{"trip over cap", with(func(s *workloads.Shape) { s.Trip = MaxShapeTrip + 1 }), false, false},
		{"range over cap", with(func(s *workloads.Shape) { s.Range = MaxShapeRange + 1 }), false, false},
		{"stmts over cap", with(func(s *workloads.Shape) { s.Stmts = MaxShapeTerms + 1 }), false, false},
		{"contig negative", with(func(s *workloads.Shape) { s.Contig = -1 }), false, true},
		{"gathers over cap", with(func(s *workloads.Shape) { s.Gathers = MaxShapeTerms + 1 }), false, false},
		{"chain over cap", with(func(s *workloads.Shape) { s.Chain = MaxShapeTerms + 1 }), false, false},
		{"elem 3", with(func(s *workloads.Shape) { s.Elem = 3 }), false, true},
		{"pattern negative", with(func(s *workloads.Shape) { s.Pattern = -1 }), false, true},
		{"pattern past last", with(func(s *workloads.Shape) { s.Pattern = workloads.PatSpreadHigh + 1 }), false, false},
		{"arrays over budget", with(func(s *workloads.Shape) {
			s.Trip, s.Contig, s.Gathers = MaxShapeTrip, MaxShapeTerms, MaxShapeTerms
		}), false, false},
	}
	check := func(t *testing.T, what string, req Request, ok bool) {
		t.Helper()
		_, err := req.Canonical()
		if ok && err != nil {
			t.Fatalf("%s: valid shape refused: %v", what, err)
		}
		if !ok && !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("%s: shape accepted or refused untyped: %v", what, err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ls := workloads.LoopSpec{Weight: 1, Shape: tc.shape}
			loop := Request{Mode: ModeLoop, Bench: "api", Loop: &ls, Seed: 7}
			check(t, "loop", loop, tc.ok)
			b := workloads.Benchmark{Name: "api", Loops: []workloads.LoopSpec{testLoopSpec(), ls}}
			check(t, "bench loops", Request{Mode: ModeBenchmark, BenchSpec: &b, Seed: 7}, tc.ok)
			lb := workloads.Benchmark{Name: "api", Limit: []workloads.LimitLoop{{Shape: base}, {Shape: tc.shape}}}
			check(t, "bench limit", Request{Mode: ModeLimit, BenchSpec: &lb, Seed: 7}, tc.ok)
			if !tc.run {
				return
			}
			_, err := (&Env{}).Run(context.Background(), loop)
			if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("Env.Run: %v", err)
			}
		})
	}
}

// TestCheckShapeAllocs holds shape validation, which every submission and
// every gateway cache hit pays, to zero allocations, and every shipped
// workload inside the bounds.
func TestCheckShapeAllocs(t *testing.T) {
	var shapes []workloads.Shape
	for _, b := range workloads.All() {
		for _, ls := range b.Loops {
			shapes = append(shapes, ls.Shape)
		}
		for _, ll := range b.Limit {
			shapes = append(shapes, ll.Shape)
		}
	}
	for i := range shapes {
		if err := checkShape(&shapes[i]); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(10, func() {
		for i := range shapes {
			_ = checkShape(&shapes[i])
		}
	})
	if n != 0 {
		t.Fatalf("validating %d shipped shapes made %.0f allocations, want 0", len(shapes), n)
	}
}

// TestMalformedShapeContained runs a shape that panics while seeding past
// validation, as a caller inside the package can: runLoop's guard and
// runLimit's error return contain it as a typed failure.
func TestMalformedShapeContained(t *testing.T) {
	e := &Env{}
	ls := workloads.LoopSpec{Weight: 1, Shape: poisonShape()}
	_, err := e.runLoop(context.Background(), cfg(), "api", ls, 7, false)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != KindPanic || se.Variant != "reference" {
		t.Fatalf("runLoop = %v, want a reference-variant panic SimError", err)
	}
	b := workloads.Benchmark{Name: "api", Limit: []workloads.LimitLoop{{Shape: poisonShape()}}}
	if _, err := e.runLimit(b, 7); !errors.As(err, &se) || se.Kind != KindPanic {
		t.Fatalf("runLimit = %v, want a panic SimError", err)
	}
}

// TestLimitAndFlexVecPanicsAttributed passes a negative-Range entry, which
// panics while seeding, straight to the limit study and the FlexVec
// comparison: each failure must name the benchmark, loop, variant and
// instantiation seed that reproduce it.
func TestLimitAndFlexVecPanicsAttributed(t *testing.T) {
	type where struct {
		kind                 FailKind
		bench, loop, variant string
		seed                 int64
	}
	e := &Env{}
	good := testLoopSpec()
	b := workloads.Benchmark{Name: "api",
		Loops: []workloads.LoopSpec{good, {Weight: 1, Shape: poisonShape()}},
		Limit: []workloads.LimitLoop{{Shape: good.Shape, Weight: 1}, {Shape: poisonShape(), Weight: 1}}}
	check := func(variant string, err error) {
		t.Helper()
		var se *SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a *SimError", variant, err)
		}
		got := where{se.Kind, se.Bench, se.Loop, se.Variant, se.Seed}
		if want := (where{KindPanic, "api", poisonShape().Name, variant, 7 + 1}); got != want {
			t.Errorf("%s failure attributed to %+v, want %+v (%v)", variant, got, want, se)
		}
	}
	_, err := e.runLimit(b, 7)
	check("limit", err)
	_, _, err = e.runFlexVec(context.Background(), b, 7)
	check("flexvec", err)
}
