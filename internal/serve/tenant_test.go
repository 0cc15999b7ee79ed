package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/workloads"
)

// rawSubmit posts a request body with arbitrary headers, returning the
// decoded status code and error envelope (if any).
func rawSubmit(t *testing.T, base string, req harness.Request, headers map[string]string) (*http.Response, JobStatus, APIError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/sims", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	var env errorEnvelope
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding status: %v (%s)", err, raw)
		}
	} else if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decoding envelope: %v (%s)", err, raw)
	}
	return resp, st, env.Error
}

// TestTenantStamping: the resolved tenant (header over body, default empty)
// is stamped on the job status; the default tenant keeps the seed's exact
// wire bytes (no tenant field at all).
func TestTenantStamping(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Body tenant alone.
	req := testLoopReq()
	req.Tenant = "acme"
	resp, st, _ := rawSubmit(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.Tenant != "acme" {
		t.Fatalf("status tenant = %q, want %q (body field)", st.Tenant, "acme")
	}

	// Header overrides body.
	req.Seed = 8
	_, st, _ = rawSubmit(t, ts.URL, req, map[string]string{HeaderTenant: "zeta"})
	if st.Tenant != "zeta" {
		t.Fatalf("status tenant = %q, want %q (header wins)", st.Tenant, "zeta")
	}

	// Default tenant: the tenant field must be absent from the wire, so a
	// seed-era client sees byte-identical statuses.
	req = testLoopReq()
	req.Seed = 9
	body, _ := json.Marshal(req)
	hresp, err := http.Post(ts.URL+"/v1/sims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	raw, _ := io.ReadAll(hresp.Body)
	if bytes.Contains(raw, []byte(`"tenant"`)) {
		t.Fatalf("default-tenant status leaks a tenant field: %s", raw)
	}

	// Tenant names: 1 to 64 characters from [A-Za-z0-9._-], checked after
	// the header-over-body resolution.
	for i, tc := range []struct {
		name, body, header string
		ok                 bool
	}{
		{name: "empty", ok: true},
		{name: "64 chars", body: strings.Repeat("a", 64), ok: true},
		{name: "charset", body: "Team-1.batch_x", ok: true},
		{name: "65 chars", body: strings.Repeat("a", 65)},
		{name: "space", body: "a b"},
		{name: "slash", body: "a/b"},
		{name: "non-ASCII", body: "équipe"},
		{name: "header space", header: "a b"},
		{name: "header overrides a bad body", body: "a/b", header: "ok", ok: true},
	} {
		req := testLoopReq()
		req.Seed = int64(20 + i)
		req.Tenant = tc.body
		var headers map[string]string
		if tc.header != "" {
			headers = map[string]string{HeaderTenant: tc.header}
		}
		resp, _, apiErr := rawSubmit(t, ts.URL, req, headers)
		if tc.ok && resp.StatusCode/100 != 2 {
			t.Errorf("%s: HTTP %d %s, want it admitted", tc.name, resp.StatusCode, apiErr.Message)
		}
		if !tc.ok && (resp.StatusCode != http.StatusBadRequest || apiErr.Code != CodeInvalidRequest) {
			t.Errorf("%s: HTTP %d %q, want 400 %s", tc.name, resp.StatusCode, apiErr.Code, CodeInvalidRequest)
		}
	}
}

// TestDefaultTenantAlias: X-Srv-Tenant: default names the default tenant,
// the one a header-less submission belongs to, so `-tenant default:...`
// configures both and healthz shows one row for them.
func TestDefaultTenantAlias(t *testing.T) {
	// Workers never start: both jobs stay queued.
	s, err := New(Config{Workers: 1, TenantQuotas: map[string]TenantLimits{"": {Weight: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := testLoopReq()
	body, _ := json.Marshal(req)
	if resp, _, _ := rawSubmit(t, ts.URL, req, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("header-less submit: HTTP %d", resp.StatusCode)
	}
	req.Seed = 8
	resp, st, _ := rawSubmit(t, ts.URL, req, map[string]string{HeaderTenant: "default"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default-header submit: HTTP %d", resp.StatusCode)
	}
	if st.Tenant != "" {
		t.Fatalf("status tenant = %q, want the default tenant (omitted)", st.Tenant)
	}

	var h Health
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	want := []TenantSnapshot{{Tenant: "default", Weight: 4, Queued: 2, InflightBytes: 2 * int64(len(body))}}
	if fmt.Sprint(h.Tenants) != fmt.Sprint(want) {
		t.Fatalf("healthz tenants = %+v, want %+v", h.Tenants, want)
	}
}

// TestNewRefusesBadTenantLimits: a NaN, infinite or negative limit in the
// uniform quota or an override is refused when the server is built, the
// same limits the -tenant grammar refuses.
func TestNewRefusesBadTenantLimits(t *testing.T) {
	for _, l := range []TenantLimits{
		{SubmitRate: math.NaN()}, {SubmitRate: math.Inf(1)}, {SubmitRate: -1},
		{SubmitBurst: -1}, {MaxInflightBytes: -1}, {Weight: -1},
	} {
		if _, err := New(Config{TenantQuota: l}); err == nil {
			t.Errorf("TenantQuota %+v accepted", l)
		}
		if _, err := New(Config{TenantQuotas: map[string]TenantLimits{"x": l}}); err == nil {
			t.Errorf("TenantQuotas x: %+v accepted", l)
		}
	}
}

// TestParseTenantOverride: the -tenant flag grammar.
func TestParseTenantOverride(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		tenant  string
		want    TenantLimits
		wantErr bool
	}{
		{spec: "acme:weight=4,rate=2.5,burst=8,bytes=1048576", tenant: "acme",
			want: TenantLimits{Weight: 4, SubmitRate: 2.5, SubmitBurst: 8, MaxInflightBytes: 1 << 20}},
		{spec: "default:weight=2", tenant: "", want: TenantLimits{Weight: 2}},
		{spec: "acme:", tenant: "acme", want: TenantLimits{}},
		{spec: "acme", wantErr: true},
		{spec: ":weight=1", wantErr: true},
		{spec: "acme:weight", wantErr: true},
		{spec: "acme:shares=3", wantErr: true},
		{spec: "acme:weight=x", wantErr: true},
		{spec: strings.Repeat("a", 64) + ":", tenant: strings.Repeat("a", 64), want: TenantLimits{}},
		{spec: strings.Repeat("a", 65) + ":", wantErr: true},
		{spec: "a b:weight=2", wantErr: true},
		{spec: "a/b:weight=2", wantErr: true},
		{spec: "équipe:weight=2", wantErr: true},
		{spec: "x:rate=NaN", wantErr: true},
		{spec: "x:rate=Inf", wantErr: true},
		{spec: "x:rate=-Inf", wantErr: true},
		{spec: "x:rate=-0.5", wantErr: true},
		{spec: "x:burst=-1", wantErr: true},
		{spec: "x:bytes=-1", wantErr: true},
		{spec: "x:weight=-2", wantErr: true},
	} {
		tenant, got, err := ParseTenantOverride(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: want error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if tenant != tc.tenant || got != tc.want {
			t.Errorf("%q = (%q, %+v), want (%q, %+v)", tc.spec, tenant, got, tc.tenant, tc.want)
		}
	}
}

// TestTenantQueueFull: a tenant at its depth bound is refused with the
// tenant-scoped 429 while other tenants still have headroom.
func TestTenantQueueFull(t *testing.T) {
	// Workers never start: the queue holds everything pushed.
	s, err := New(Config{Workers: 1, QueueSize: 64, TenantQueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := testLoopReq()
	req.Tenant = "acme"
	for i := 0; i < 2; i++ {
		req.Seed = int64(100 + i)
		if resp, _, _ := rawSubmit(t, ts.URL, req, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	req.Seed = 102
	resp, _, apiErr := rawSubmit(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: HTTP %d, want 429", resp.StatusCode)
	}
	if apiErr.Code != CodeOverCapacity {
		t.Fatalf("refusal code = %q, want %q", apiErr.Code, CodeOverCapacity)
	}
	if !strings.Contains(apiErr.Message, `tenant "acme" queue full`) {
		t.Fatalf("refusal message %q does not name the tenant bound", apiErr.Message)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Fatalf("refusal carries no retry_after_ms: %+v", apiErr)
	}
	if n := s.met.shedTenantFull.Load(); n != 1 {
		t.Fatalf("jobs_rejected_tenant_full = %d, want 1", n)
	}
	// Another tenant is unaffected.
	other := testLoopReq()
	other.Tenant = "different"
	other.Seed = 103
	if resp, _, _ := rawSubmit(t, ts.URL, other, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant refused by acme's bound: HTTP %d", resp.StatusCode)
	}
	// The refused job must not linger in the job table or the journal state.
	s.mu.RLock()
	n := len(s.jobs)
	s.mu.RUnlock()
	if n != 3 {
		t.Fatalf("%d jobs tracked, want 3 (refused job rolled back)", n)
	}
}

// TestDeadlineRefusals: an expired or infeasible X-Srv-Deadline-Ms is
// refused up front with 504 timeout — retrying won't help, so it is not an
// over-capacity refusal.
func TestDeadlineRefusals(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Already expired on arrival.
	req := testLoopReq()
	resp, _, apiErr := rawSubmit(t, ts.URL, req, map[string]string{HeaderDeadlineMS: "0"})
	if resp.StatusCode != http.StatusGatewayTimeout || apiErr.Code != CodeTimeout {
		t.Fatalf("expired deadline: HTTP %d code %q, want 504 %q", resp.StatusCode, apiErr.Code, CodeTimeout)
	}
	if !strings.Contains(apiErr.Message, "already expired") {
		t.Fatalf("message %q does not explain the expiry", apiErr.Message)
	}

	// Infeasible: the predicted queue wait alone out-waits the deadline.
	s.met.serviceNanos.Store(int64(time.Second))
	req.Seed = 201
	if resp, _, _ := rawSubmit(t, ts.URL, req, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("backlog submit: HTTP %d", resp.StatusCode)
	}
	req.Seed = 202
	resp, _, apiErr = rawSubmit(t, ts.URL, req, map[string]string{HeaderDeadlineMS: "100"})
	if resp.StatusCode != http.StatusGatewayTimeout || apiErr.Code != CodeTimeout {
		t.Fatalf("infeasible deadline: HTTP %d code %q, want 504 %q", resp.StatusCode, apiErr.Code, CodeTimeout)
	}
	if !strings.Contains(apiErr.Message, "predicted queue wait") {
		t.Fatalf("message %q does not explain the prediction", apiErr.Message)
	}
	if n := s.met.jobsExpired.Load(); n != 2 {
		t.Fatalf("jobs_expired_deadline = %d, want 2", n)
	}
	// A garbled deadline header is ignored, not refused.
	req.Seed = 203
	if resp, _, _ := rawSubmit(t, ts.URL, req, map[string]string{HeaderDeadlineMS: "soon"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("garbled deadline header refused the job: HTTP %d", resp.StatusCode)
	}
}

// TestDeadlineExpiresInQueue: a job whose deadline passes while queued is
// cancelled by the worker before execution, terminating as a failed 504.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Queue the job with a 30ms deadline while no worker runs, let the
	// deadline lapse, then start the workers.
	resp, st, _ := rawSubmit(t, ts.URL, testLoopReq(), map[string]string{HeaderDeadlineMS: "30"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	time.Sleep(60 * time.Millisecond)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	c := NewClient(ts.URL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Status(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateFailed {
			if !strings.Contains(got.Error, "deadline expired") {
				t.Fatalf("failure reason %q, want a deadline expiry", got.Error)
			}
			break
		}
		if got.State == StateDone {
			t.Fatal("expired job executed anyway")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.met.jobsExpired.Load(); n != 1 {
		t.Fatalf("jobs_expired_deadline = %d, want 1", n)
	}
}

// TestBrownoutSteps walks the degradation ladder white-box: predicted wait
// against the high-water picks the step, the step picks who is shed, and
// cache hits are served at every step.
func TestBrownoutSteps(t *testing.T) {
	s, err := New(Config{
		Workers: 1, BrownoutHighWater: 100 * time.Millisecond,
		TenantQuotas: map[string]TenantLimits{"vip": {Weight: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Below the high-water: everyone is served.
	if step := s.brownoutStep(); step != 0 {
		t.Fatalf("idle step = %d, want 0", step)
	}
	req := testLoopReq()
	req.Seed = 300
	resp, st0, _ := rawSubmit(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("baseline submit: HTTP %d", resp.StatusCode)
	}

	// Step 1 (est > HW): tenants below the max configured weight shed.
	s.met.serviceNanos.Store(int64(150 * time.Millisecond)) // est = 150ms × 1 queued
	if step := s.brownoutStep(); step != 1 {
		t.Fatalf("step = %d, want 1", step)
	}
	req.Seed = 301
	resp, _, apiErr := rawSubmit(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusTooManyRequests || apiErr.Code != CodeOverCapacity {
		t.Fatalf("shed-low default-tenant submit: HTTP %d %q, want 429 over_capacity", resp.StatusCode, apiErr.Code)
	}
	if !strings.Contains(apiErr.Message, "brownout (shed-low)") {
		t.Fatalf("refusal message %q does not name the step", apiErr.Message)
	}
	vip := testLoopReq()
	vip.Tenant = "vip"
	vip.Seed = 302
	resp, stVIP, _ := rawSubmit(t, ts.URL, vip, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("shed-low vip submit: HTTP %d, want accepted at step 1", resp.StatusCode)
	}

	// Step 2 (est > 2×HW): every fresh submission refused, vip included.
	s.met.serviceNanos.Store(int64(150 * time.Millisecond)) // est = 150ms × 2 queued = 300ms
	if step := s.brownoutStep(); step != 2 {
		t.Fatalf("step = %d, want 2", step)
	}
	vip.Seed = 303
	resp, _, apiErr = rawSubmit(t, ts.URL, vip, nil)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(apiErr.Message, "no-new-work") {
		t.Fatalf("no-new-work vip submit: HTTP %d %q", resp.StatusCode, apiErr.Message)
	}

	// Step 3 (est > 4×HW): progress streaming of live jobs suspends too.
	s.met.serviceNanos.Store(int64(250 * time.Millisecond)) // est = 500ms
	if step := s.brownoutStep(); step != 3 {
		t.Fatalf("step = %d, want 3", step)
	}
	sresp, err := http.Get(ts.URL + "/v1/sims/" + st0.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stream of a live job at cached-only: HTTP %d, want 429", sresp.StatusCode)
	}

	// Healthz names the step.
	var h Health
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Brownout != "cached-only" {
		t.Fatalf("healthz brownout = %q, want %q", h.Brownout, "cached-only")
	}

	// Cache hits are still served at the deepest step.
	cached := testLoopReq()
	cached.Seed = 304
	creq, err := cached.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := creq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, json.RawMessage(`{"loop":{"bench":"svc"}}`))
	resp, cst, _ := rawSubmit(t, ts.URL, cached, nil)
	if resp.StatusCode != http.StatusOK || !cst.Cached {
		t.Fatalf("cache hit at cached-only: HTTP %d cached=%v, want served", resp.StatusCode, cst.Cached)
	}
	// Two shed submissions plus the suspended stream.
	if n := s.met.shedBrownout.Load(); n != 3 {
		t.Fatalf("jobs_shed_brownout = %d, want 3", n)
	}

	// Brownout gates admission only: both admitted jobs finish once a
	// worker runs, and the drained queue reads step 0 again.
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c := NewClient(ts.URL)
	for _, id := range []string{st0.ID, stVIP.ID} {
		deadline := time.Now().Add(time.Minute)
		for {
			st, err := c.Status(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateDone {
				break
			}
			if st.State == StateFailed || time.Now().After(deadline) {
				t.Fatalf("admitted job %s ended %s under brownout", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if step := s.brownoutStep(); step != 0 {
		t.Fatalf("step = %d after the queue drained, want 0", step)
	}
}

// TestClientRetryAfterPreference is the satellite table test: the typed
// envelope's retry_after_ms wins whenever present; the Retry-After header is
// the fallback for proxies that strip bodies.
func TestClientRetryAfterPreference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
		bodyMS int64
		noBody bool
		want   time.Duration
	}{
		{name: "envelope wins over larger header", header: "2", bodyMS: 250, want: 250 * time.Millisecond},
		{name: "envelope wins over smaller header", header: "1", bodyMS: 1500, want: 1500 * time.Millisecond},
		{name: "envelope alone", bodyMS: 750, want: 750 * time.Millisecond},
		{name: "header alone", header: "2", want: 2 * time.Second},
		{name: "neither", want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				if tc.noBody {
					return
				}
				env := errorEnvelope{Error: APIError{Code: CodeOverCapacity, Message: "busy", RetryAfterMS: tc.bodyMS}}
				_ = json.NewEncoder(w).Encode(env)
			}))
			defer ts.Close()
			c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
			_, err := c.Submit(context.Background(), testLoopReq())
			var he *HTTPError
			if !errors.As(err, &he) {
				t.Fatalf("want HTTPError, got %v", err)
			}
			if he.RetryAfter != tc.want {
				t.Fatalf("RetryAfter = %s, want %s", he.RetryAfter, tc.want)
			}
		})
	}
}

// TestCacheByteBound is the satellite test for the byte-bounded LRU: total
// rendered bytes evict beyond the cap, oversized entries are refused, and
// overwrites re-account.
func TestCacheByteBound(t *testing.T) {
	c := NewResultCache(10, 100)
	// An n-digit JSON number renders to the same n bytes.
	val := func(n int) json.RawMessage {
		return json.RawMessage(strings.Repeat("1", n))
	}

	c.Put("a", val(40))
	c.Put("b", val(40))
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 80/2", c.Bytes(), c.Len())
	}
	// A third 40-byte entry blows the 100-byte cap: the LRU victim (a) goes.
	c.Put("c", val(40))
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("after eviction bytes=%d len=%d, want 80/2", c.Bytes(), c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("surviving entry evicted")
	}
	// An entry bigger than the whole budget is refused outright — caching it
	// would evict everything for one result.
	c.Put("huge", val(150))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry cached")
	}
	if c.Bytes() != 80 {
		t.Fatalf("oversized put changed accounting: bytes=%d", c.Bytes())
	}
	// Bytes no reply could embed are refused too.
	c.Put("junk", json.RawMessage("xxxx"))
	if _, ok := c.Get("junk"); ok || c.Bytes() != 80 {
		t.Fatalf("non-JSON entry cached (bytes=%d)", c.Bytes())
	}
	// Overwrites re-account rather than double-count.
	c.Put("b", val(10))
	if c.Bytes() != 50 {
		t.Fatalf("after overwrite bytes=%d, want 50", c.Bytes())
	}
	// Entry-count bound still applies independently of bytes.
	tiny := NewResultCache(2, -1)
	tiny.Put("a", val(1))
	tiny.Put("b", val(1))
	tiny.Put("c", val(1))
	if tiny.Len() != 2 {
		t.Fatalf("entry bound ignored: len=%d", tiny.Len())
	}
	// Node and gateway share one rule: 0 selects the default byte bound,
	// negative leaves bytes unbounded.
	for _, tc := range []struct{ cfg, want int64 }{{0, DefaultCacheMaxBytes}, {-1, 0}, {100, 100}} {
		s, err := New(Config{CacheMaxBytes: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.cache.maxByte; got != tc.want {
			t.Errorf("Config.CacheMaxBytes %d: cache byte bound %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestMultiTenantChaos is the deterministic chaos drill: a 40-job flood from
// a weight-1 tenant and 2 jobs from a weight-4 interactive tenant are queued
// before any worker starts, then released. The interactive jobs must finish
// while the flood still has a backlog (starvation-freedom), their results
// must be byte-identical to local execution, and every flood job must still
// complete (zero lost work).
func TestMultiTenantChaos(t *testing.T) {
	s, err := New(Config{
		Workers: 1, QueueSize: 256,
		TenantQuotas: map[string]TenantLimits{"interactive": {Weight: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	flood := make([]string, 40)
	for i := range flood {
		req := harness.Request{
			Mode: harness.ModeLoop, Bench: "svc", Seed: int64(400 + i), Tenant: "flood",
			Loop: &workloads.LoopSpec{Weight: 1, Shape: workloads.Shape{
				Name: "svc", Trip: 1 << 13, Contig: 1, Chain: 1,
				Pattern: workloads.PatIdentity, ReadSelf: true, StoreVia: true,
			}},
		}
		resp, st, _ := rawSubmit(t, ts.URL, req, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d: HTTP %d", i, resp.StatusCode)
		}
		flood[i] = st.ID
	}
	inter := make([]harness.Request, 2)
	interIDs := make([]string, len(inter))
	for i := range inter {
		inter[i] = testLoopReq()
		inter[i].Tenant = "interactive"
		inter[i].Seed = int64(500 + i)
		resp, st, _ := rawSubmit(t, ts.URL, inter[i], nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive submit %d: HTTP %d", i, resp.StatusCode)
		}
		interIDs[i] = st.ID
	}

	// Release the worker: DRR must interleave the interactive tenant ahead
	// of the flood's 40-deep backlog.
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	ctx := context.Background()
	c := NewClient(ts.URL)
	results := make([][]byte, len(inter))
	for i, id := range interIDs {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := c.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateFailed {
				t.Fatalf("interactive job %s failed: %s", id, st.Error)
			}
			if st.State == StateDone {
				if st.Tenant != "interactive" {
					t.Fatalf("job %s carries tenant %q, want interactive", id, st.Tenant)
				}
				results[i] = st.Result
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("interactive job %s still %s behind the flood — starved", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The flood must still be backlogged when the interactive tenant is done.
	if d := s.tenants.depth("flood"); d == 0 {
		t.Fatal("flood backlog already drained — the drill proved nothing about isolation")
	}

	// Byte-identity through the multi-tenant path.
	for i, req := range inter {
		local, err := harness.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			t.Fatal(err)
		}
		var got harness.Result
		if err := json.Unmarshal(results[i], &got); err != nil {
			t.Fatal(err)
		}
		gotBytes, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, want) {
			t.Fatalf("interactive request %d diverged under multi-tenant scheduling", i)
		}
	}

	// Zero lost jobs: every flood job reaches done.
	for _, id := range flood {
		deadline := time.Now().Add(time.Minute)
		for {
			st, err := c.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateFailed {
				t.Fatalf("flood job %s failed: %s", id, st.Error)
			}
			if st.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flood job %s lost (still %s)", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// The drained tenants hold nothing, so no record is left.
	if n := records(s.tenants); n != 0 {
		t.Fatalf("%d tenant records left after the flood drained, want 0", n)
	}
}
