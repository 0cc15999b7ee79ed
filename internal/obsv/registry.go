// Package obsv is the unified observability layer of the simulator: a typed
// metrics registry (counters, gauges, fixed-bucket histograms) with
// namespaced registration and JSON/text exporters, a Chrome-trace-event
// (Perfetto-compatible) tracer for SRV region and replay spans, and a
// cycle-interval sampler producing time-series of pipeline occupancy.
//
// The registry is a *view* layer: counters are registered as pointers to the
// int64 fields the simulator already increments on its hot path (or as
// closures for derived values), so registration adds zero cost per event —
// exporters read the live values on demand. This is the expvar/Prometheus
// collect-on-scrape discipline, chosen so the registry migration cannot
// perturb cycle-accurate measurements.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Kind discriminates the metric types held by a Registry.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Metric is one registered observable: a name, a help string, and a live
// value source (pointer or closure) read at export time.
type Metric struct {
	Section string
	Name    string
	Help    string
	Kind    Kind

	intPtr  *int64
	intFn   func() int64
	gaugeFn func() float64
	format  string // gauge text rendering, e.g. "%.4f"
	hist    *Histogram
	when    func() bool // nil = always exported
}

// Int returns the current value of a counter metric.
func (m *Metric) Int() int64 {
	if m.intPtr != nil {
		return *m.intPtr
	}
	if m.intFn != nil {
		return m.intFn()
	}
	return 0
}

// Float returns the current value of a gauge metric.
func (m *Metric) Float() float64 {
	if m.gaugeFn != nil {
		return m.gaugeFn()
	}
	return float64(m.Int())
}

// live reports whether the metric should appear in exports right now.
func (m *Metric) live() bool { return m.when == nil || m.when() }

// Registry holds metrics in registration order, grouped into named sections.
// It is not safe for concurrent registration; the simulator builds one
// registry per pipeline after construction and exports after Run.
type Registry struct {
	metrics []*Metric
	byName  map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

// Section returns a registration handle that files every metric under the
// given display section (the gem5-dump grouping).
func (r *Registry) Section(name string) Section {
	return Section{r: r, section: name}
}

// Lookup returns the metric registered under name, or nil.
func (r *Registry) Lookup(name string) *Metric { return r.byName[name] }

// Metrics returns every registered metric in registration order.
func (r *Registry) Metrics() []*Metric { return r.metrics }

func (r *Registry) add(m *Metric) {
	if _, dup := r.byName[m.Name]; dup {
		panic(fmt.Sprintf("obsv: duplicate metric %q", m.Name))
	}
	r.byName[m.Name] = m
	r.metrics = append(r.metrics, m)
}

// Section registers metrics under one display section. The zero value is
// unusable; obtain one from Registry.Section.
type Section struct {
	r       *Registry
	section string
	when    func() bool
}

// If returns a copy of the section whose subsequent registrations are
// exported only while pred returns true (conditional dump lines, e.g.
// accuracy ratios that need a non-zero denominator).
func (s Section) If(pred func() bool) Section {
	s.when = pred
	return s
}

// Counter registers a counter backed by the given field pointer. The caller
// keeps incrementing the field directly; the registry reads it at export.
func (s Section) Counter(name, help string, v *int64) {
	s.r.add(&Metric{Section: s.section, Name: name, Help: help, Kind: KindCounter, intPtr: v, when: s.when})
}

// CounterFn registers a counter computed by fn at export time (derived
// counts, e.g. live-entry totals).
func (s Section) CounterFn(name, help string, fn func() int64) {
	s.r.add(&Metric{Section: s.section, Name: name, Help: help, Kind: KindCounter, intFn: fn, when: s.when})
}

// Gauge registers a float-valued metric computed by fn, rendered in text
// exports with the given fmt verb (e.g. "%.4f").
func (s Section) Gauge(name, help, format string, fn func() float64) {
	s.r.add(&Metric{Section: s.section, Name: name, Help: help, Kind: KindGauge, gaugeFn: fn, format: format, when: s.when})
}

// Histogram registers a fixed-bucket histogram. Histograms appear in the
// JSON export only: the text renderer is the gem5-style scalar dump.
func (s Section) Histogram(name, help string, h *Histogram) {
	s.r.add(&Metric{Section: s.section, Name: name, Help: help, Kind: KindHistogram, hist: h, when: s.when})
}

// RenderText renders the scalar metrics as a gem5-style statistics report:
// sections in registration order, one "name value  # help" line per metric.
// Histograms are skipped (JSON-only); conditional metrics are skipped while
// their predicate is false.
func (r *Registry) RenderText() string {
	var b strings.Builder
	section := ""
	first := true
	for _, m := range r.metrics {
		if m.Kind == KindHistogram || !m.live() {
			continue
		}
		if first || m.Section != section {
			fmt.Fprintf(&b, "\n---------- %s ----------\n", m.Section)
			section = m.Section
			first = false
		}
		var v interface{}
		switch m.Kind {
		case KindCounter:
			v = m.Int()
		case KindGauge:
			v = fmt.Sprintf(m.format, m.Float())
		}
		fmt.Fprintf(&b, "%-42s %16v  # %s\n", m.Name, v, m.Help)
	}
	return b.String()
}

// jsonMetric is the JSON export shape of one metric.
type jsonMetric struct {
	Name    string   `json:"name"`
	Section string   `json:"section"`
	Kind    string   `json:"kind"`
	Help    string   `json:"help"`
	Value   *int64   `json:"value,omitempty"`
	Float   *float64 `json:"float,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Total   int64    `json:"total,omitempty"`
}

// WriteJSON writes every live metric (histograms included) as an indented
// JSON array in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make([]jsonMetric, 0, len(r.metrics))
	for _, m := range r.metrics {
		if !m.live() {
			continue
		}
		jm := jsonMetric{Name: m.Name, Section: m.Section, Kind: m.Kind.String(), Help: m.Help}
		switch m.Kind {
		case KindCounter:
			v := m.Int()
			jm.Value = &v
		case KindGauge:
			f := m.Float()
			jm.Float = &f
		case KindHistogram:
			jm.Buckets = m.hist.Buckets()
			jm.Total = m.hist.Total()
		}
		out = append(out, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
