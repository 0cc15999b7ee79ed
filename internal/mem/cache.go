package mem

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name   string
	SizeB  int // total capacity in bytes
	Ways   int
	LineB  int // line size in bytes
	HitLat int // cycles on hit
}

// CacheStats aggregates per-level access counts.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Cache is a set-associative tag array with LRU replacement, used purely for
// timing: data lives in the Image, the cache only decides latency.
type Cache struct {
	cfg      CacheConfig
	lines    []line // one slab, set-major: set s, way w at s*Ways+w
	nSets    int
	setMask  uint64
	lineBits uint
	lruTick  uint64 // per-cache so concurrent simulations share nothing
	Stats    CacheStats
}

// line is one tag-array slot. The valid bit rides in the top bit of the
// last-use tick (lruValid), which keeps a line at 16 bytes: the L2 array of
// every pipeline is 16K lines. Ticks count accesses, so they never reach
// that bit.
type line struct {
	tag uint64
	lru uint64 // last-use tick, with lruValid set once the line is filled
}

const lruValid = 1 << 63

func (ln *line) valid() bool { return ln.lru&lruValid != 0 }

// NewCache builds a cache from cfg. Sizes must be powers of two.
func NewCache(cfg CacheConfig) *Cache {
	nLines := cfg.SizeB / cfg.LineB
	nSets := nLines / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("mem: cache set count must be a power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineB {
		lineBits++
	}
	return &Cache{cfg: cfg, lines: make([]line, nSets*cfg.Ways), nSets: nSets,
		setMask: uint64(nSets - 1), lineBits: lineBits}
}

// set returns the ways of set s, a window of the line slab.
func (c *Cache) set(s uint64) []line {
	w := uint64(c.cfg.Ways)
	return c.lines[s*w : s*w+w : s*w+w]
}

// Lookup probes the cache for addr, fills on miss, and reports whether the
// access hit.
func (c *Cache) Lookup(addr uint64) bool {
	c.lruTick++
	tag := addr >> c.lineBits
	set := c.set(tag & c.setMask)
	for i := range set {
		if set[i].valid() && set[i].tag == tag {
			set[i].lru = c.lruTick | lruValid
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid() {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru { // both valid: the bit cancels
			victim = i
		}
	}
	set[victim] = line{tag: tag, lru: c.lruTick | lruValid}
	return false
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hierarchy is the two-level cache + memory latency model of Table I.
type Hierarchy struct {
	L1, L2 *Cache
	MemLat int // cycles for a access that misses both levels

	// MemBusy, when non-zero, models DRAM bandwidth: each memory access
	// occupies the channel for MemBusy cycles, and later accesses queue
	// behind it (single-channel approximation). Zero = unlimited bandwidth.
	MemBusy   int
	busyUntil int64
	// QueueDelay accumulates cycles spent waiting for the channel.
	QueueDelay int64

	// NextLinePrefetch, when set, pulls the next cache line into the
	// hierarchy on every L1 miss (a simple stream prefetcher; default off
	// to preserve the Table I calibration).
	NextLinePrefetch bool
	Prefetches       int64
}

// DefaultHierarchy returns the configuration evaluated in the paper:
// L1 32KiB 4-way 2-cycle hit, L2 1MiB 16-way 7-cycle hit.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:     NewCache(CacheConfig{Name: "L1", SizeB: 32 << 10, Ways: 4, LineB: 64, HitLat: 2}),
		L2:     NewCache(CacheConfig{Name: "L2", SizeB: 1 << 20, Ways: 16, LineB: 64, HitLat: 7}),
		MemLat: 80,
	}
}

// Latency returns the access latency for addr and updates both levels'
// contents and statistics (bandwidth-unaware; see LatencyAt).
func (h *Hierarchy) Latency(addr uint64) int {
	return h.LatencyAt(0, addr)
}

// LatencyAt is Latency with DRAM-bandwidth modelling: when MemBusy is set,
// a memory access starting at cycle `now` queues behind earlier ones.
func (h *Hierarchy) LatencyAt(now int64, addr uint64) int {
	if h.L1.Lookup(addr) {
		return h.L1.cfg.HitLat
	}
	if h.NextLinePrefetch {
		// Fill the next line off the critical path.
		next := (addr &^ uint64(h.L1.cfg.LineB-1)) + uint64(h.L1.cfg.LineB)
		h.L1.Lookup(next)
		h.L2.Lookup(next)
		h.Prefetches++
	}
	if h.L2.Lookup(addr) {
		return h.L1.cfg.HitLat + h.L2.cfg.HitLat
	}
	lat := h.L1.cfg.HitLat + h.L2.cfg.HitLat + h.MemLat
	if h.MemBusy > 0 {
		start := now
		if h.busyUntil > start {
			h.QueueDelay += h.busyUntil - start
			lat += int(h.busyUntil - start)
			start = h.busyUntil
		}
		h.busyUntil = start + int64(h.MemBusy)
	}
	return lat
}

// SpanLatency returns the worst-case latency over the cache lines touched by
// the byte span [addr, addr+n).
func (h *Hierarchy) SpanLatency(addr uint64, n int) int {
	lineB := uint64(h.L1.cfg.LineB)
	worst := 0
	for line := addr &^ (lineB - 1); line < addr+uint64(n); line += lineB {
		if lat := h.Latency(line); lat > worst {
			worst = lat
		}
	}
	if worst == 0 {
		worst = h.L1.cfg.HitLat
	}
	return worst
}
