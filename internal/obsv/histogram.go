package obsv

import "sync"

// Histogram buckets int64 observations into fixed ranges chosen at
// construction. Observe is a binary search over a small bounds slice plus
// two increments — cheap enough for once-per-region events, though not meant
// for the per-cycle hot path.
//
// A plain Histogram is single-goroutine (the simulator's discipline); the
// serve layer observes from worker goroutines while scrapes read, so it uses
// NewSyncHistogram, which carries a mutex. The nil-mutex fast path keeps the
// pipeline's histograms lock-free.
type Histogram struct {
	mu     *sync.Mutex // nil for single-goroutine histograms
	bounds []int64     // ascending upper bounds (inclusive); one overflow bucket beyond
	counts []int64
	total  int64
	sum    int64
	max    int64 // largest observation; 0 while empty
}

// NewHistogram builds a histogram whose i-th bucket holds observations
// v <= bounds[i] (and above the previous bound); values beyond the last
// bound land in a final overflow bucket.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// NewSyncHistogram builds a histogram safe for concurrent Observe and
// export (used by the serve layer, where workers observe while /v1/metrics
// scrapes read).
func NewSyncHistogram(bounds ...int64) *Histogram {
	h := NewHistogram(bounds...)
	h.mu = &sync.Mutex{}
	return h
}

// PowersOfTwo returns bounds 1, 2, 4, ... up to 2^(n-1).
func PowersOfTwo(n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = 1 << i
	}
	return b
}

func (h *Histogram) lock() {
	if h.mu != nil {
		h.mu.Lock()
	}
}

func (h *Histogram) unlock() {
	if h.mu != nil {
		h.mu.Unlock()
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.lock()
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo]++
	h.total++
	h.sum += v
	if h.total == 1 || v > h.max {
		h.max = v
	}
	h.unlock()
}

// Total returns the observation count.
func (h *Histogram) Total() int64 {
	h.lock()
	defer h.unlock()
	return h.total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	h.lock()
	defer h.unlock()
	return h.sum
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	h.lock()
	defer h.unlock()
	return h.max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.lock()
	defer h.unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bucket is one exported histogram range. Hi is -1 for the overflow bucket.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in range order.
func (h *Histogram) Buckets() []Bucket {
	h.lock()
	defer h.unlock()
	var out []Bucket
	lo := int64(0)
	for i, c := range h.counts {
		hi := int64(-1)
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if c > 0 {
			out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
		}
		lo = hi + 1
	}
	return out
}

// Cumulative returns the bucket upper bounds alongside cumulative counts up
// to and including each bound, plus the grand total and sum — the shape the
// Prometheus text exposition wants (the total doubles as the +Inf bucket).
func (h *Histogram) Cumulative() (bounds []int64, cum []int64, total, sum int64) {
	h.lock()
	defer h.unlock()
	bounds = append([]int64(nil), h.bounds...)
	cum = make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += h.counts[i]
		cum[i] = run
	}
	return bounds, cum, h.total, h.sum
}

// HistogramState is the serialisable state of a Histogram, captured into
// the pipeline checkpoint: the region-duration histogram is machine
// statistics that DumpStats prints.
type HistogramState struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Total  int64   `json:"total"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// State captures the histogram's buckets and totals.
func (h *Histogram) State() HistogramState {
	h.lock()
	defer h.unlock()
	return HistogramState{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Total:  h.total,
		Sum:    h.sum,
		Max:    h.max,
	}
}

// SetState replaces the histogram's contents with a captured state.
func (h *Histogram) SetState(st HistogramState) {
	h.lock()
	defer h.unlock()
	h.bounds = append(h.bounds[:0], st.Bounds...)
	h.counts = append(h.counts[:0], st.Counts...)
	h.total = st.Total
	h.sum = st.Sum
	h.max = st.Max
}
