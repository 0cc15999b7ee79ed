package mem

import (
	"fmt"
	"sort"
)

// Serialisable memory-substrate state for the pipeline checkpoint: the
// sparse image pages, both cache tag arrays with their LRU ticks, and the
// DRAM-channel busy horizon. Restoring over a live hierarchy replaces the
// contents wholesale, so a checkpoint taken after cache warming rolls the
// warm state forward exactly.

// PageState is one captured memory page. Data marshals as base64.
type PageState struct {
	PN   uint64 `json:"pn"`
	Data []byte `json:"data"`
}

// ImageState is the serialisable state of an Image.
type ImageState struct {
	Next  uint64      `json:"next"`
	Pages []PageState `json:"pages"` // sorted by page number
}

// State captures the image contents. Pages are copied and sorted so the
// serialised form is deterministic.
func (im *Image) State() ImageState {
	st := ImageState{Next: im.next, Pages: make([]PageState, 0, len(im.pages))}
	for pn, p := range im.pages {
		data := make([]byte, pageSize)
		copy(data, p[:])
		st.Pages = append(st.Pages, PageState{PN: pn, Data: data})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].PN < st.Pages[j].PN })
	return st
}

// SetState replaces the image contents in place (existing pointers to the
// Image stay valid). Pages absent from the state are dropped.
func (im *Image) SetState(st ImageState) error {
	im.next = st.Next
	for pn := range im.pages {
		delete(im.pages, pn)
	}
	clear(im.dense) // refills from pages on first touch
	im.last = nil
	for i := range st.Pages {
		ps := &st.Pages[i]
		if len(ps.Data) != pageSize {
			return fmt.Errorf("mem: page %#x has %d bytes, want %d", ps.PN, len(ps.Data), pageSize)
		}
		p := new([pageSize]byte)
		copy(p[:], ps.Data)
		im.pages[ps.PN] = p
	}
	return nil
}

// LineState is one captured cache line (tag array only; data lives in the
// Image).
type LineState struct {
	Tag   uint64 `json:"tag"`
	Valid bool   `json:"valid"`
	LRU   uint64 `json:"lru"`
}

// CacheState is the serialisable state of one cache level.
type CacheState struct {
	Sets    int         `json:"sets"`
	Ways    int         `json:"ways"`
	LRUTick uint64      `json:"lruTick"`
	Lines   []LineState `json:"lines"` // set-major: set s, way w at s*Ways+w
	Stats   CacheStats  `json:"stats"`
}

// State captures the cache's tag array, LRU clock and statistics.
func (c *Cache) State() CacheState {
	st := CacheState{Sets: c.nSets, Ways: c.cfg.Ways, LRUTick: c.lruTick,
		Lines: make([]LineState, len(c.lines)), Stats: c.Stats}
	for i, ln := range c.lines {
		st.Lines[i] = LineState{Tag: ln.tag, Valid: ln.valid(), LRU: ln.lru &^ lruValid}
	}
	return st
}

// SetState replaces the cache's contents with a captured state. The cache
// must have the same geometry the state was captured from.
func (c *Cache) SetState(st CacheState) error {
	if st.Sets != c.nSets || st.Ways != c.cfg.Ways {
		return fmt.Errorf("mem: cache %s geometry mismatch: state %dx%d, cache %dx%d",
			c.cfg.Name, st.Sets, st.Ways, c.nSets, c.cfg.Ways)
	}
	if len(st.Lines) != st.Sets*st.Ways {
		return fmt.Errorf("mem: cache %s has %d lines, want %d", c.cfg.Name, len(st.Lines), st.Sets*st.Ways)
	}
	for i, ls := range st.Lines {
		if ls.LRU&lruValid != 0 {
			return fmt.Errorf("mem: cache %s line %d has LRU tick %d, beyond any run", c.cfg.Name, i, ls.LRU)
		}
	}
	c.lruTick = st.LRUTick
	c.Stats = st.Stats
	for i, ls := range st.Lines {
		c.lines[i] = line{tag: ls.Tag, lru: ls.LRU}
		if ls.Valid {
			c.lines[i].lru |= lruValid
		}
	}
	return nil
}

// HierarchyState is the serialisable state of the cache hierarchy. The
// latency/bandwidth configuration (MemLat, MemBusy, NextLinePrefetch) is
// re-established from the simulation config on restore and is not captured.
type HierarchyState struct {
	L1         CacheState `json:"l1"`
	L2         CacheState `json:"l2"`
	BusyUntil  int64      `json:"busyUntil"`
	QueueDelay int64      `json:"queueDelay"`
	Prefetches int64      `json:"prefetches"`
}

// State captures both cache levels and the DRAM-channel state.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{
		L1:         h.L1.State(),
		L2:         h.L2.State(),
		BusyUntil:  h.busyUntil,
		QueueDelay: h.QueueDelay,
		Prefetches: h.Prefetches,
	}
}

// SetState replaces the hierarchy's mutable state with a captured one.
func (h *Hierarchy) SetState(st HierarchyState) error {
	if err := h.L1.SetState(st.L1); err != nil {
		return err
	}
	if err := h.L2.SetState(st.L2); err != nil {
		return err
	}
	h.busyUntil = st.BusyUntil
	h.QueueDelay = st.QueueDelay
	h.Prefetches = st.Prefetches
	return nil
}
