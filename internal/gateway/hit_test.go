package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
	"srvsim/internal/workloads"
)

// idleGateway is a gateway over one node it never reaches: every test
// submission here is a gateway-tier hit.
func idleGateway(t *testing.T) *Gateway {
	t.Helper()
	g, err := New(Config{Nodes: []string{"http://127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var stamps = regexp.MustCompile(`"(submitted|started|finished)_at": "[^"]*"`)

// TestGatewayHitSpellings: one key submitted by benchmark name and with the
// spec inlined (and no bench field) is two bodies and two aliases in turn.
// Each reply, by the slow path or by its alias, is the parent's hit reply
// for that body: WriteJSON of CachedStatus stamped with the canonical mode
// and bench, the gateway's node ID and the caller's trace.
func TestGatewayHitSpellings(t *testing.T) {
	g := idleGateway(t)
	b := workloads.All()[0]
	byName, _ := json.Marshal(harness.Request{Mode: harness.ModeBenchmark, Bench: b.Name, Seed: 9})
	inline, _ := json.Marshal(harness.Request{Mode: harness.ModeBenchmark, BenchSpec: &b, Seed: 9})
	if bytes.Contains(inline, []byte(`"bench":`)) {
		t.Fatalf("inline spelling carries a bench field: %s", inline)
	}
	creq, err := harness.Request{Mode: harness.ModeBenchmark, Bench: b.Name, Seed: 9}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	result := []byte(`{"bench":{"name":"<` + b.Name + `>","speedup":1.25,"loops":[]}}`)
	g.cache.Put(key, result)

	trace := obsv.NewTrace()
	want := func() []byte {
		st := serve.CachedStatus(key, result, time.Now())
		st.Mode, st.Bench, st.Node, st.TraceID = creq.Mode, creq.Bench, g.cfg.NodeID, trace.Trace.String()
		rec := httptest.NewRecorder()
		serve.WriteJSON(rec, http.StatusOK, st)
		return stamps.ReplaceAllLiteral(rec.Body.Bytes(), nil)
	}()
	submit := func(body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/sims", bytes.NewReader(body))
		req.Header.Set(obsv.HeaderTraceparent, trace.Traceparent())
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		return stamps.ReplaceAllLiteral(rec.Body.Bytes(), nil)
	}
	for i, body := range [][]byte{byName, byName, inline, inline, byName, inline} {
		if got := submit(body); !bytes.Equal(got, want) {
			t.Fatalf("submission %d: reply differs from the parent's hit reply\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		if h, ok := g.cache.GetBody(sha256.Sum256(body)); !ok || h.Key != key {
			t.Fatalf("submission %d: body not aliased to its key", i)
		}
	}
	if n := g.met.cacheHits.Load(); n != 6 {
		t.Fatalf("gateway.cache.hits = %d, want 6", n)
	}
	if n := g.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	// One alias per entry: the last spelling holds it.
	if _, ok := g.cache.GetBody(sha256.Sum256(byName)); ok {
		t.Fatal("an entry kept two aliases")
	}
}

// replayBody is a request body a test can rewind between runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// maxGatewayHitAllocs bounds an aliased gateway-tier hit through Handler
// into an httptest.ResponseRecorder, the recorder's own allocations
// included: measured at 15 (go1.24.0; 49 before hits skipped the decode).
const maxGatewayHitAllocs = 18

// TestGatewayHitAllocs pins the allocations of a gateway-tier hit answered
// by its body digest: no decode, no re-encode.
func TestGatewayHitAllocs(t *testing.T) {
	g := idleGateway(t)
	creq, err := testLoopReq(7).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	g.cache.Put(key, []byte(`{"loop":{"bench":"svc","speedup":1.5}}`))
	body, _ := json.Marshal(creq) // canonical, as serve.Client sends it
	h := g.Handler()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/sims", nil)
	rb := &replayBody{}
	hreq.Body, hreq.ContentLength = rb, int64(len(body))
	hit := func() *httptest.ResponseRecorder {
		rb.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hreq)
		return rec
	}
	// The first hit takes the slow path and records the alias.
	if rec := hit(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
		t.Fatalf("warm-up: HTTP %d %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(200, func() { hit() })
	t.Logf("gateway hit: %.1f allocations", allocs)
	if allocs > maxGatewayHitAllocs {
		t.Fatalf("gateway cache hit: %.1f allocations, bound %d", allocs, maxGatewayHitAllocs)
	}
	if n := g.met.cacheHits.Load(); n != 202 {
		t.Fatalf("gateway.cache.hits = %d, want 202", n)
	}
}
