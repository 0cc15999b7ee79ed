package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"
)

// ResultCache is a bounded LRU over harness.Result encodings, addressed by
// harness.Request.CacheKey. Each entry holds its result once, already
// rendered the way a status reply embeds it (see renderResult), so a hit
// writes the stored bytes and the service never re-marshals cached
// payloads. Only successful Results are admitted (failures carry
// wall-clock-dependent context such as timeouts and must re-execute).
//
// An entry may also carry one body alias: the SHA-256 of a raw submission
// body that resolved to its key, with that spelling's rendered "mode" and
// "bench" lines. The alias index is keyed by the digest and owned by the
// cache: eviction removes an entry's alias with it, so the index never
// holds more aliases than there are entries.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	maxByte int64 // total rendered-result bytes bound; 0 = unbounded
	bytes   int64 // current rendered-result bytes held
	entries map[string]*list.Element
	aliases map[[sha256.Size]byte]*list.Element
	order   *list.List // front = most recently used
}

// DefaultCacheMaxBytes bounds a result cache's payload when its byte bound
// is left at 0: entry count alone lets a few multi-MB benchmark Results blow
// any sensible memory budget, so the byte bound is on by default at both the
// node and the gateway tier.
const DefaultCacheMaxBytes = 256 << 20

type cacheEntry struct {
	key    string
	result []byte // rendered (renderResult)
	// digest and modeBench are the entry's body alias; modeBench is nil
	// when it has none.
	digest    [sha256.Size]byte
	modeBench []byte
}

// NewResultCache returns an LRU holding at most max entries and maxBytes of
// rendered results; max < 1 disables caching entirely (every Get misses,
// every Put is dropped). Eviction runs while either bound is exceeded, so a
// handful of multi-MB benchmark Results cannot blow past the memory budget
// that the entry count alone would allow. maxBytes 0 selects
// DefaultCacheMaxBytes and a negative maxBytes leaves bytes unbounded (entry
// count only); a single entry larger than the byte bound is never admitted.
func NewResultCache(max int, maxBytes int64) *ResultCache {
	switch {
	case maxBytes == 0:
		maxBytes = DefaultCacheMaxBytes
	case maxBytes < 0:
		maxBytes = 0
	}
	return &ResultCache{max: max, maxByte: maxBytes, entries: make(map[string]*list.Element),
		aliases: make(map[[sha256.Size]byte]*list.Element), order: list.New()}
}

// renderResult returns a result encoding in the exact bytes WriteJSON gives
// the "result" field of a JobStatus: compacted with HTML escaping, as the
// encoder treats a json.RawMessage, then indented at depth 1 (prefix and
// indent two spaces each). The bytes are still a JSON encoding of the same
// value, so a compact encoder (the NDJSON stream) reproduces the original.
func renderResult(data []byte) ([]byte, error) {
	compact, err := json.Marshal(json.RawMessage(data))
	if err != nil {
		return nil, err
	}
	// Simulation results grow by half to three quarters when indented.
	b := bytes.NewBuffer(make([]byte, 0, 2*len(compact)))
	if err := json.Indent(b, compact, "  ", "  "); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Get returns the rendered result for key and whether it was present.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// Has reports whether key is cached, without counting as a use: the LRU
// order is left as it was.
func (c *ResultCache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// GetBody resolves a submission body's digest through the alias index. A
// hit returns the reply's key, its "mode"/"bench" lines and the rendered
// result; the caller stamps trace, node and tenant.
func (c *ResultCache) GetBody(digest [sha256.Size]byte) (CachedReply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[digest]
	if !ok {
		return CachedReply{}, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return CachedReply{Key: e.key, ModeBench: e.modeBench, Result: e.result}, true
}

// Alias records digest, the SHA-256 of a body that resolved to key, as the
// entry's one alias, replacing any it had. modeBench is that body's
// AppendModeBench rendering. A key the cache no longer holds gets none.
func (c *ResultCache) Alias(key string, digest [sha256.Size]byte, modeBench []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	if prev, ok := c.aliases[digest]; ok {
		c.unalias(prev.Value.(*cacheEntry))
	}
	e := el.Value.(*cacheEntry)
	c.unalias(e)
	e.digest, e.modeBench = digest, modeBench
	c.aliases[digest] = el
}

// unalias drops e's alias, if any, from the index.
func (c *ResultCache) unalias(e *cacheEntry) {
	if e.modeBench != nil {
		delete(c.aliases, e.digest)
		e.modeBench = nil
	}
}

// Put stores data, rendered, under key, evicting least recently used
// entries while the cache is over either bound (entry count or total
// rendered bytes). Re-putting an existing key refreshes its recency and
// re-accounts its size. An entry that alone exceeds the byte bound is
// dropped outright — admitting it would evict the whole cache and still be
// over — and so is data that is not JSON, which no reply could embed.
func (c *ResultCache) Put(key string, data []byte) {
	if c.max < 1 {
		return
	}
	result, err := renderResult(data)
	if err != nil || (c.maxByte > 0 && int64(len(result)) > c.maxByte) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(result)) - int64(len(e.result))
		e.result = result
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: result})
		c.bytes += int64(len(result))
	}
	for c.order.Len() > c.max || (c.maxByte > 0 && c.bytes > c.maxByte) {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		c.bytes -= int64(len(e.result))
		c.unalias(e)
		delete(c.entries, e.key)
	}
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the total rendered-result bytes currently held.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
