package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryTextRendering(t *testing.T) {
	r := NewRegistry()
	var cycles, insts int64 = 1234, 56
	core := r.Section("core")
	core.Counter("sim.cycles", "simulated cycles", &cycles)
	core.Counter("sim.insts", "committed instructions", &insts)
	core.Gauge("sim.ipc", "instructions per cycle", "%.4f", func() float64 {
		return float64(insts) / float64(cycles)
	})
	srv := r.Section("srv")
	srv.CounterFn("srv.regions", "completed regions", func() int64 { return 9 })

	got := r.RenderText()
	want := "\n---------- core ----------\n" +
		"sim.cycles                                             1234  # simulated cycles\n" +
		"sim.insts                                                56  # committed instructions\n" +
		"sim.ipc                                              0.0454  # instructions per cycle\n" +
		"\n---------- srv ----------\n" +
		"srv.regions                                               9  # completed regions\n"
	if got != want {
		t.Fatalf("text render mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}

	// Counters are live views: bumping the field changes the next render.
	cycles = 2000
	if !strings.Contains(r.RenderText(), "2000") {
		t.Fatal("counter did not track its backing field")
	}
}

func TestRegistryConditionalAndLookup(t *testing.T) {
	r := NewRegistry()
	var lookups int64
	s := r.Section("bp")
	s.Counter("bp.lookups", "lookups", &lookups)
	s.If(func() bool { return lookups > 0 }).Gauge("bp.accuracy", "accuracy", "%.4f", func() float64 { return 1 })

	if strings.Contains(r.RenderText(), "bp.accuracy") {
		t.Fatal("conditional metric rendered while predicate false")
	}
	lookups = 5
	if !strings.Contains(r.RenderText(), "bp.accuracy") {
		t.Fatal("conditional metric missing while predicate true")
	}
	if m := r.Lookup("bp.lookups"); m == nil || m.Int() != 5 {
		t.Fatalf("Lookup(bp.lookups) = %v", m)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var v int64
	r.Section("a").Counter("x", "", &v)
	r.Section("b").Counter("x", "", &v)
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	var v int64 = 7
	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(25)
	s := r.Section("core")
	s.Counter("c", "a counter", &v)
	s.Gauge("g", "a gauge", "%.2f", func() float64 { return 1.5 })
	s.Histogram("h", "a histogram", h)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d metrics, want 3", len(out))
	}
	if out[0]["value"].(float64) != 7 || out[1]["float"].(float64) != 1.5 {
		t.Fatalf("scalar values wrong: %v", out)
	}
	if out[2]["total"].(float64) != 2 || len(out[2]["buckets"].([]any)) != 2 {
		t.Fatalf("histogram export wrong: %v", out[2])
	}
	// Histograms are JSON-only.
	if strings.Contains(r.RenderText(), "histogram") {
		t.Fatal("histogram leaked into the text render")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(PowersOfTwo(4)...) // bounds 1,2,4,8 + overflow
	for _, v := range []int64{0, 1, 2, 3, 4, 8, 9, 100} {
		h.Observe(v)
	}
	want := []Bucket{
		{Lo: 0, Hi: 1, Count: 2},  // 0, 1
		{Lo: 2, Hi: 2, Count: 1},  // 2
		{Lo: 3, Hi: 4, Count: 2},  // 3, 4
		{Lo: 5, Hi: 8, Count: 1},  // 8
		{Lo: 9, Hi: -1, Count: 2}, // 9, 100 overflow
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d, want 8", h.Total())
	}
	if m := h.Mean(); m != 127.0/8 {
		t.Fatalf("mean = %v", m)
	}
	if m := h.Max(); m != 100 {
		t.Fatalf("max = %d, want 100", m)
	}
	// The maximum survives a state round trip, so a restored pipeline
	// reports the same region-duration max as the uninterrupted run.
	h2 := NewHistogram(PowersOfTwo(4)...)
	h2.SetState(h.State())
	if h2.Max() != 100 || h2.Total() != 8 || h2.Sum() != 127 {
		t.Fatalf("restored max=%d total=%d sum=%d", h2.Max(), h2.Total(), h2.Sum())
	}
}

// TestSyncHistogramConcurrent observes from several goroutines while another
// reads, as serve's workers and /v1/metrics scrapes do; -race checks that
// every field, the maximum included, is read and written under the lock.
func TestSyncHistogramConcurrent(t *testing.T) {
	const workers, per = 4, 500
	h := NewSyncHistogram(PowersOfTwo(8)...)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= per; i++ {
				h.Observe(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h.Total() < workers*per {
			_, _, _, _ = h.Cumulative()
			_, _ = h.Max(), h.Mean()
		}
	}()
	wg.Wait()
	<-done
	if h.Total() != workers*per || h.Max() != per || h.Sum() != workers*per*(per+1)/2 {
		t.Fatalf("total=%d max=%d sum=%d", h.Total(), h.Max(), h.Sum())
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.ThreadName(0, "regions")
	tr.Span(0, "region 1", "srv", 100, 250, map[string]any{"passes": 3})
	tr.Instant(2, "squash", "pipeline", 120, map[string]any{"insts": 4})
	tr.Counter("occupancy", 128, map[string]any{"rob": 10, "iq": 3})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(f.TraceEvents))
	}
	span := f.TraceEvents[1]
	if span["ph"] != "X" || span["ts"].(float64) != 100 || span["dur"].(float64) != 150 {
		t.Fatalf("span event wrong: %v", span)
	}
}

func TestTracerCap(t *testing.T) {
	tr := NewTracer()
	tr.SetCap(2)
	for i := 0; i < 5; i++ {
		tr.Instant(0, "e", "", int64(i), nil)
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped_events") {
		t.Fatal("dropped count missing from trace metadata")
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	s := NewSampler(100, "ipc", "rob")
	s.Sample(100, 1.5, 12)
	s.Sample(200, 0.25, 40)

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "cycle,ipc,rob\n100,1.5,12\n200,0.25,40\n"
	if csv.String() != want {
		t.Fatalf("csv = %q, want %q", csv.String(), want)
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Every  int64                `json:"every"`
		Cycles []int64              `json:"cycles"`
		Series map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal(js.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Every != 100 || len(out.Cycles) != 2 || out.Series["rob"][1] != 40 {
		t.Fatalf("json export wrong: %+v", out)
	}
}

func TestSamplerMismatchedColumnsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched value count did not panic")
		}
	}()
	NewSampler(1, "a", "b").Sample(0, 1)
}
