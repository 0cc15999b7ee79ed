package serve

import (
	"container/list"
	"sync"
)

// cache is a bounded LRU over marshalled harness.Result bytes, addressed by
// harness.Request.CacheKey. It stores the exact encoding produced when the
// job finished, so a hit returns the byte-identical Result the original
// submission got — the service never re-marshals cached payloads. Only
// successful Results are admitted (failures carry wall-clock-dependent
// context such as timeouts and must re-execute).
type ResultCache struct {
	mu      sync.Mutex
	max     int
	maxByte int64 // total payload bytes bound; 0 = unbounded
	bytes   int64 // current payload bytes held
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// DefaultCacheMaxBytes bounds a result cache's payload when its byte bound
// is left at 0: entry count alone lets a few multi-MB benchmark Results blow
// any sensible memory budget, so the byte bound is on by default at both the
// node and the gateway tier.
const DefaultCacheMaxBytes = 256 << 20

type cacheEntry struct {
	key  string
	data []byte
}

// NewResultCache returns an LRU holding at most max entries and maxBytes of
// payload; max < 1 disables caching entirely (every Get misses, every Put is
// dropped). Eviction runs while either bound is exceeded, so a handful of
// multi-MB benchmark Results cannot blow past the memory budget that the
// entry count alone would allow. maxBytes 0 selects DefaultCacheMaxBytes and
// a negative maxBytes leaves bytes unbounded (entry count only); a single
// entry larger than the byte bound is never admitted.
func NewResultCache(max int, maxBytes int64) *ResultCache {
	switch {
	case maxBytes == 0:
		maxBytes = DefaultCacheMaxBytes
	case maxBytes < 0:
		maxBytes = 0
	}
	return &ResultCache{max: max, maxByte: maxBytes, entries: make(map[string]*list.Element), order: list.New()}
}

// Get returns the cached encoding for key and whether it was present.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Put stores data under key, evicting least recently used entries while the
// cache is over either bound (entry count or total bytes). Re-putting an
// existing key refreshes its recency and re-accounts its size. An entry that
// alone exceeds the byte bound is dropped outright — admitting it would
// evict the whole cache and still be over.
func (c *ResultCache) Put(key string, data []byte) {
	if c.max < 1 {
		return
	}
	if c.maxByte > 0 && int64(len(data)) > c.maxByte {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	for c.order.Len() > c.max || (c.maxByte > 0 && c.bytes > c.maxByte) {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		c.bytes -= int64(len(e.data))
		delete(c.entries, e.key)
	}
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the total payload bytes currently held.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
