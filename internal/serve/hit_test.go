package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
)

// cachedStatusPair renders one cache hit both ways: through
// WriteCachedStatus from the cache's rendering of result, and the way a hit
// was written before, WriteJSON of a stamped CachedStatus. It reports
// false when result is not JSON, which no cache admits.
func cachedStatusPair(t *testing.T, key string, mode harness.Mode, bench, node, tenant string,
	trace obsv.TraceID, result []byte, now time.Time) (got, want *httptest.ResponseRecorder, ok bool) {
	t.Helper()
	rendered, err := renderResult(result)
	if err != nil {
		if json.Valid(result) {
			t.Fatalf("renderResult(%q): %v", result, err)
		}
		return nil, nil, false
	}
	st := CachedStatus(key, result, now)
	st.Mode, st.Bench, st.Node, st.Tenant = mode, bench, node, tenant
	if !trace.IsZero() {
		st.TraceID = trace.String()
	}
	want = httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, st)
	got = httptest.NewRecorder()
	h := CachedReply{Key: key, Trace: trace, Node: node, Tenant: tenant, Result: rendered}
	if mode != "" || bench != "" {
		h.ModeBench = AppendModeBench(nil, mode, bench)
	}
	WriteCachedStatus(got, h, now)
	return got, want, true
}

func sameReply(t *testing.T, name string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Errorf("%s: status %d %q, want %d %q", name, got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: appended status differs from WriteJSON\ngot:\n%s\nwant:\n%s", name, got.Body, want.Body)
	}
}

// TestAppendCachedStatusMatchesWriteJSON: the hit writer's reply is the
// bytes WriteJSON gives the same CachedStatus, over the done golden
// fixture's fields, results that need HTML and line-separator escaping or
// hold empty containers, and every optional field empty and set.
func TestAppendCachedStatusMatchesWriteJSON(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "jobstatus_done.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var done JobStatus
	if err := json.Unmarshal(golden, &done); err != nil {
		t.Fatal(err)
	}
	results := map[string]string{
		"golden":    string(done.Result),
		"html":      `{"note":"<b>a & b</b>","x":["<",">","&"]}`,
		"separator": "{\"s\":\"line\u2028para\u2029end\"}",
		"empty":     `{"o":{},"a":[],"n":[{},[]],"deep":{"e":{}}}`,
		"scalars":   " [ 1 , -2.5e3 , true , null , \"\u00e9\U0001F600\xff\" ] ",
		"compact":   `{}`,
	}
	trace := obsv.TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	times := []time.Time{
		done.SubmittedAt,
		time.Date(2026, 10, 19, 16, 24, 29, 123456789, time.UTC),
		time.Date(2026, 10, 19, 16, 24, 29, 120000000, time.FixedZone("x", 5*3600+30*60)),
		time.Now(),
	}
	for rname, result := range results {
		for i, now := range times {
			for _, f := range []struct {
				mode         harness.Mode
				bench        string
				node, tenant string
				trace        obsv.TraceID
			}{
				{done.Mode, done.Bench, done.Node, done.Tenant, obsv.TraceID{}},
				{"", "", "", "", obsv.TraceID{}},
				{harness.ModeBenchmark, "", "srvgw", "", trace},
				{harness.ModeLoop, "a<b>&\"c\"\\\n\u2028\xff\x01", "node-1", "acme", trace},
				{harness.ModeFuzz, "svc", "", "t.1-x", obsv.TraceID{}},
			} {
				got, want, ok := cachedStatusPair(t, done.ID, f.mode, f.bench, f.node, f.tenant, f.trace, []byte(result), now)
				if !ok {
					t.Fatalf("%s: result is not JSON", rname)
				}
				sameReply(t, fmt.Sprintf("%s/time%d/%s/%q", rname, i, f.mode, f.bench), got, want)
			}
		}
	}
}

// FuzzCachedStatus is the differential check over arbitrary result bytes
// and bench strings: whatever the cache admits, the hit writer renders as
// WriteJSON would.
func FuzzCachedStatus(f *testing.F) {
	f.Add([]byte(`{"loop":{"bench":"svc","speedup":3.25}}`), "svc")
	f.Add([]byte(`{"a":[],"o":{},"s":"<&>"}`), "")
	f.Fuzz(func(t *testing.T, result []byte, bench string) {
		now := time.Date(2026, 10, 19, 16, 24, 29, 5, time.UTC)
		got, want, ok := cachedStatusPair(t, "fedcba9876543210", harness.ModeLoop, bench, "srvgw", "",
			obsv.TraceID{1}, result, now)
		if ok {
			sameReply(t, "fuzz", got, want)
		}
	})
}

// checkAliasIndex fails unless every alias names a live entry carrying that
// alias, and the index holds no more aliases than the cache holds entries.
func checkAliasIndex(t *testing.T, c *ResultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.aliases) > c.order.Len() {
		t.Fatalf("%d aliases over %d entries", len(c.aliases), c.order.Len())
	}
	for d, el := range c.aliases {
		e := el.Value.(*cacheEntry)
		if c.entries[e.key] != el || e.modeBench == nil || e.digest != d {
			t.Fatalf("alias %x names entry %q, which does not carry it", d[:4], e.key)
		}
	}
}

// TestCacheAliasEviction: an alias never outlives its entry, whichever
// bound evicts it, and the index never outgrows the entries.
func TestCacheAliasEviction(t *testing.T) {
	c := NewResultCache(2, -1)
	digest := func(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }
	c.Put("a", []byte(`"A"`))
	c.Alias("a", digest("body-a"), AppendModeBench(nil, harness.ModeLoop, "a"))
	if h, ok := c.GetBody(digest("body-a")); !ok || h.Key != "a" || string(h.Result) != `"A"` {
		t.Fatalf("alias of a: %+v, %v", h, ok)
	}
	c.Alias("gone", digest("body-gone"), AppendModeBench(nil, harness.ModeLoop, ""))
	if _, ok := c.GetBody(digest("body-gone")); ok {
		t.Fatal("alias recorded for a key the cache does not hold")
	}
	c.Put("b", []byte(`"B"`))
	c.Put("c", []byte(`"C"`)) // evicts a
	if _, ok := c.GetBody(digest("body-a")); ok {
		t.Fatal("alias outlived its evicted entry")
	}
	checkAliasIndex(t, c)

	// One alias per entry: a second spelling replaces the first.
	c.Alias("b", digest("b1"), AppendModeBench(nil, harness.ModeLoop, "b"))
	c.Alias("b", digest("b2"), AppendModeBench(nil, harness.ModeLoop, "b"))
	if _, ok := c.GetBody(digest("b1")); ok {
		t.Fatal("replaced alias still resolves")
	}
	checkAliasIndex(t, c)

	// Random puts, aliases and lookups under both bounds.
	rng := rand.New(rand.NewSource(7))
	c = NewResultCache(8, 64)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprint(rng.Intn(20))
		switch rng.Intn(3) {
		case 0:
			c.Put(key, []byte(fmt.Sprintf("%q", bytes.Repeat([]byte("x"), rng.Intn(30)))))
		case 1:
			c.Alias(key, digest(fmt.Sprint(rng.Intn(40))), AppendModeBench(nil, harness.ModeLoop, key))
		default:
			if h, ok := c.GetBody(digest(fmt.Sprint(rng.Intn(40)))); ok {
				if want, _ := c.Get(h.Key); !bytes.Equal(want, h.Result) {
					t.Fatalf("alias result for %q differs from its entry", h.Key)
				}
			}
		}
		checkAliasIndex(t, c)
	}
}

// replayBody is a request body a test can rewind between runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// maxNodeHitAllocs bounds a node-tier cache hit through Handler into an
// httptest.ResponseRecorder, the recorder's own allocations included:
// measured at 34 (go1.24.0; 52 before the one-write reply).
const maxNodeHitAllocs = 40

// TestNodeHitAllocs pins the allocations of a node-tier cache hit.
func TestNodeHitAllocs(t *testing.T) {
	s, err := New(Config{NodeID: "node-1"})
	if err != nil {
		t.Fatal(err)
	}
	creq, err := testLoopReq().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, []byte(`{"loop":{"bench":"svc","speedup":1.5}}`))
	body, _ := json.Marshal(creq) // canonical, as serve.Client sends it
	h := s.Handler()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/sims", nil)
	rb := &replayBody{}
	hreq.Body, hreq.ContentLength = rb, int64(len(body))
	hit := func() *httptest.ResponseRecorder {
		rb.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hreq)
		return rec
	}
	if rec := hit(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
		t.Fatalf("warm-up: HTTP %d %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(200, func() { hit() })
	t.Logf("node hit: %.1f allocations", allocs)
	if allocs > maxNodeHitAllocs {
		t.Fatalf("node cache hit: %.1f allocations, bound %d", allocs, maxNodeHitAllocs)
	}
}
