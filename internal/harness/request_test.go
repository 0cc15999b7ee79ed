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
		{"sizes at cap", func(c *pipeline.Config) {
			c.IQSize, c.ROBSize, c.LSQSize = MaxConfigQueue, MaxConfigQueue, MaxConfigQueue
		}, true},
		{"budget at cap", func(c *pipeline.Config) { c.MaxCycles = MaxConfigCycles }, true},
		{"budget default", func(c *pipeline.Config) { c.MaxCycles = 0 }, true},
		{"width zero", func(c *pipeline.Config) { c.Width = 0 }, false},
		{"width over cap", func(c *pipeline.Config) { c.Width = MaxConfigWidth + 1 }, false},
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
			_, err := req.Canonical()
			if tc.ok && err != nil {
				t.Fatalf("valid config refused: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("config accepted or refused untyped: %v", err)
			}
		})
	}
	// A nil config is the harness default and needs no check.
	if _, err := (Request{Mode: ModeBenchmark, Bench: "is", Seed: 7}).Canonical(); err != nil {
		t.Fatal(err)
	}
}
