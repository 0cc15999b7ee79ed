package mem

import "testing"

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	im.WriteInt(0x2000, 4, -7)
	if got := im.ReadInt(0x2000, 4); got != -7 {
		t.Errorf("ReadInt = %d, want -7", got)
	}
	// Sign extension across element widths.
	im.WriteInt(0x3000, 1, -1)
	if got := im.ReadInt(0x3000, 1); got != -1 {
		t.Errorf("1-byte ReadInt = %d, want -1", got)
	}
	if got := im.ReadInt(0x3000, 2); got != 255 {
		t.Errorf("2-byte ReadInt over {0xFF,0x00} = %d, want 255", got)
	}
}

func TestImageCrossPage(t *testing.T) {
	im := NewImage()
	addr := uint64(pageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6}
	im.WriteBytes(addr, data)
	got := make([]byte, 6)
	im.ReadBytes(addr, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("cross-page byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestImageUntouchedIsZero(t *testing.T) {
	im := NewImage()
	if got := im.ReadInt(0x123456, 8); got != 0 {
		t.Errorf("untouched memory = %d, want 0", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	im := NewImage()
	a := im.Alloc(100, 64)
	b := im.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestAllocBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc with non-power-of-two alignment should panic")
		}
	}()
	NewImage().Alloc(8, 3)
}

func TestCloneEqualFirstDiff(t *testing.T) {
	im := NewImage()
	im.WriteInt(0x2000, 8, 42)
	c := im.Clone()
	if !im.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.WriteInt(0x2004, 1, 9)
	if im.Equal(c) {
		t.Fatal("modified clone should differ")
	}
	addr, diff := im.FirstDiff(c)
	if !diff || addr != 0x2004 {
		t.Errorf("FirstDiff = %#x,%v, want 0x2004,true", addr, diff)
	}
	// A page of explicit zeros equals an absent page.
	d := im.Clone()
	d.WriteInt(0x90000, 8, 0)
	if !im.Equal(d) {
		t.Error("explicit zero page should equal absent page")
	}
}

// TestFirstDiff pins FirstDiff's answer at page edges, for pages only one
// image holds, and across several differing pages.
func TestFirstDiff(t *testing.T) {
	const pg = 0x4000 // a page boundary
	type write struct {
		addr uint64
		v    int64
	}
	cases := []struct {
		name     string
		a, b     []write // byte writes to each image
		want     uint64
		wantDiff bool
	}{
		{name: "equal", a: []write{{pg, 1}, {pg + 9, 2}}, b: []write{{pg, 1}, {pg + 9, 2}}},
		{name: "first byte of a page", a: []write{{pg, 1}}, b: []write{{pg, 2}}, want: pg, wantDiff: true},
		{name: "last byte of a page", a: []write{{pg + pageSize - 1, 1}}, b: []write{{pg + pageSize - 1, 2}},
			want: pg + pageSize - 1, wantDiff: true},
		{name: "zero page in one image only", a: []write{{pg + 5, 0}}},
		{name: "non-zero page in one image only", b: []write{{pg + 5, 7}}, want: pg + 5, wantDiff: true},
		{name: "non-zero page in the other image only", a: []write{{pg + pageSize - 1, 7}},
			want: pg + pageSize - 1, wantDiff: true},
		{name: "lowest of several pages",
			a:    []write{{pg + 3*pageSize + 1, 1}, {pg + pageSize + 100, 1}, {pg + 2*pageSize, 1}},
			b:    []write{{pg + 3*pageSize, 1}, {pg + pageSize + 7, 1}, {pg + 5*pageSize, 1}},
			want: pg + pageSize + 7, wantDiff: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewImage(), NewImage()
			for _, w := range tc.a {
				a.WriteInt(w.addr, 1, w.v)
			}
			for _, w := range tc.b {
				b.WriteInt(w.addr, 1, w.v)
			}
			for _, dir := range []struct {
				name string
				x, y *Image
			}{{"a vs b", a, b}, {"b vs a", b, a}, {"a vs clone of b", a, b.Clone()}} {
				addr, diff := dir.x.FirstDiff(dir.y)
				if diff != tc.wantDiff || addr != tc.want {
					t.Errorf("%s: FirstDiff = %#x,%v, want %#x,%v", dir.name, addr, diff, tc.want, tc.wantDiff)
				}
				if eq := dir.x.Equal(dir.y); eq == tc.wantDiff {
					t.Errorf("%s: Equal = %v, want %v", dir.name, eq, !tc.wantDiff)
				}
			}
		})
	}
	a := NewImage()
	for i := uint64(0); i < 64; i++ {
		a.WriteInt(pg+i*pageSize, 8, int64(i))
	}
	b := a.Clone()
	if n := testing.AllocsPerRun(10, func() { a.FirstDiff(b) }); n != 0 {
		t.Errorf("FirstDiff of equal 64-page images made %.0f allocations, want 0", n)
	}
}

// TestCloneIsIndependent checks that a clone's pages, which share one slab,
// are copies: writes to the clone reach neither the original nor each other.
func TestCloneIsIndependent(t *testing.T) {
	const pages = 64
	im := NewImage()
	for i := uint64(0); i < pages; i++ {
		im.WriteInt(0x4000+i*pageSize, 8, int64(i+1))
	}
	c := im.Clone()
	for i := uint64(0); i < pages; i++ {
		c.WriteInt(0x4000+i*pageSize, 8, -1)
	}
	for i := uint64(0); i < pages; i++ {
		if got := im.ReadInt(0x4000+i*pageSize, 8); got != int64(i+1) {
			t.Errorf("original page %d reads %d after writing the clone, want %d", i, got, i+1)
		}
		if got := c.ReadInt(0x4000+i*pageSize, 8); got != -1 {
			t.Errorf("clone page %d reads %d, want -1", i, got)
		}
	}
	if n := testing.AllocsPerRun(10, func() { im.Clone() }); n > 8 {
		t.Errorf("Clone of a %d-page image made %.0f allocations, want a few, not one per page", pages, n)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineB: 64, HitLat: 2})
	if c.Lookup(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Lookup(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Lookup(0x1004) {
		t.Error("same-line access should hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits 1 miss", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 8 sets of 64B lines => addresses 0, 512, 1024 map to set 0.
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineB: 64, HitLat: 2})
	c.Lookup(0)    // miss, fill way 0
	c.Lookup(512)  // miss, fill way 1
	c.Lookup(0)    // hit, refresh
	c.Lookup(1024) // miss, evicts 512 (LRU)
	if !c.Lookup(0) {
		t.Error("line 0 should still be resident")
	}
	if c.Lookup(512) {
		t.Error("line 512 should have been evicted")
	}
}

// TestCacheStateRoundTrip pins the captured form of the tag array: valid
// lines report their tag and last-use tick, unfilled lines read as zero and
// invalid, and a restored cache continues with the same replacement order.
// A tick with the top bit set cannot come from a run and is refused.
func TestCacheStateRoundTrip(t *testing.T) {
	cfg := CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineB: 64, HitLat: 2}
	c := NewCache(cfg)
	c.Lookup(0)   // tick 1: set 0 way 0
	c.Lookup(512) // tick 2: set 0 way 1
	c.Lookup(0)   // tick 3: refresh way 0
	st := c.State()
	want := []LineState{{Tag: 0, Valid: true, LRU: 3}, {Tag: 8, Valid: true, LRU: 2}, {}}
	for i, w := range want {
		if st.Lines[i] != w {
			t.Errorf("line %d = %+v, want %+v", i, st.Lines[i], w)
		}
	}
	r := NewCache(cfg)
	if err := r.SetState(st); err != nil {
		t.Fatal(err)
	}
	r.Lookup(1024) // evicts 512, the LRU way, as the original would
	if !r.Lookup(0) || r.Lookup(512) {
		t.Error("restored cache replaced the wrong way")
	}
	bad := c.State()
	bad.Lines[0].LRU = 1 << 63
	if err := r.SetState(bad); err == nil {
		t.Error("out-of-range LRU tick restored without error")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	if lat := h.Latency(0x4000); lat != 2+7+80 {
		t.Errorf("cold access latency = %d, want 89", lat)
	}
	if lat := h.Latency(0x4000); lat != 2 {
		t.Errorf("L1 hit latency = %d, want 2", lat)
	}
	// Evict from L1 but not L2: touch enough distinct lines mapping to the
	// same L1 set. L1: 32KiB/64B/4w = 128 sets; stride 128*64 = 8KiB.
	for i := 1; i <= 4; i++ {
		h.Latency(0x4000 + uint64(i*8192))
	}
	if lat := h.Latency(0x4000); lat != 2+7 {
		t.Errorf("L2 hit latency = %d, want 9", lat)
	}
}

func TestSpanLatencyWorstLine(t *testing.T) {
	h := DefaultHierarchy()
	h.Latency(0x8000) // warm first line
	// Span covering the warm line and a cold one: worst-case applies.
	if lat := h.SpanLatency(0x8000, 128); lat != 2+7+80 {
		t.Errorf("span latency = %d, want 89", lat)
	}
	if lat := h.SpanLatency(0x8000, 16); lat != 2 {
		t.Errorf("warm span latency = %d, want 2", lat)
	}
}

func TestMemoryBandwidthQueueing(t *testing.T) {
	h := DefaultHierarchy()
	h.MemBusy = 10
	// Two back-to-back cold misses at the same cycle: the second queues.
	lat1 := h.LatencyAt(100, 0x10000)
	lat2 := h.LatencyAt(100, 0x20000)
	if lat1 != 2+7+80 {
		t.Errorf("first miss latency = %d, want 89", lat1)
	}
	if lat2 != 2+7+80+10 {
		t.Errorf("queued miss latency = %d, want 99", lat2)
	}
	if h.QueueDelay != 10 {
		t.Errorf("queue delay = %d, want 10", h.QueueDelay)
	}
	// A miss after the channel drains pays no queue delay.
	if lat := h.LatencyAt(500, 0x30000); lat != 89 {
		t.Errorf("post-drain miss latency = %d, want 89", lat)
	}
	// Hits never touch the channel.
	if lat := h.LatencyAt(500, 0x10000); lat != 2 {
		t.Errorf("hit latency = %d, want 2", lat)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	// Miss at line 0 prefetches line 64: the next access hits L1.
	if lat := h.LatencyAt(0, 0x10000); lat != 89 {
		t.Errorf("first miss latency = %d, want 89", lat)
	}
	if lat := h.LatencyAt(1, 0x10040); lat != 2 {
		t.Errorf("prefetched line latency = %d, want 2 (L1 hit)", lat)
	}
	if h.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", h.Prefetches)
	}
	// Hits never prefetch.
	h.LatencyAt(2, 0x10000)
	if h.Prefetches != 1 {
		t.Errorf("prefetches after hit = %d, want still 1", h.Prefetches)
	}
}

// TestDensePageIndex checks that the dense page index agrees with the page
// map whatever the order of allocation, indexing, writes and state restore:
// pages written before and after IndexPages, arrays allocated past the
// indexed range, and addresses below the allocation base.
func TestDensePageIndex(t *testing.T) {
	im := NewImage()
	a := im.Alloc(3*pageSize, 64)
	im.WriteInt(a, 8, 11) // before indexing: must be found through the index
	im.IndexPages()
	if len(im.dense) == 0 {
		t.Fatal("IndexPages built no index over allocated pages")
	}
	im.WriteInt(a+2*pageSize, 8, 22) // indexed page, first touched now
	b := im.Alloc(pageSize, 64)      // past the indexed range: map only
	im.WriteInt(b, 8, 33)            // outside the index
	im.WriteInt(0x10, 8, 44)         // below the allocation base
	im.WriteInt(1<<40, 8, 55)        // wild address
	ref := NewImage()                // the same writes without an index
	ref.WriteInt(a, 8, 11)
	ref.WriteInt(a+2*pageSize, 8, 22)
	ref.WriteInt(b, 8, 33)
	ref.WriteInt(0x10, 8, 44)
	ref.WriteInt(1<<40, 8, 55)
	for _, addr := range []uint64{a, a + 2*pageSize, b, 0x10, 1 << 40} {
		if got, want := im.ReadInt(addr, 8), ref.ReadInt(addr, 8); got != want {
			t.Errorf("read %#x = %d, want %d", addr, got, want)
		}
	}
	if !im.Equal(ref) {
		t.Fatal("indexed image differs from the map-only image")
	}
	for pn, p := range im.pages {
		if i := pn - allocBase>>pageBits; i < uint64(len(im.dense)) && im.dense[i] != nil && im.dense[i] != p {
			t.Fatalf("dense index holds a different page than the map for page %#x", pn)
		}
	}

	// Restoring a state replaces every page: the index must not serve the
	// old ones.
	st := ref.State()
	im.WriteInt(a, 8, 99)
	if err := im.SetState(st); err != nil {
		t.Fatal(err)
	}
	if got := im.ReadInt(a, 8); got != 11 {
		t.Errorf("after SetState read %#x = %d, want 11", a, got)
	}
	im.IndexPages() // a second call keeps or grows the index, never loses pages
	if got := im.ReadInt(b, 8); got != 33 {
		t.Errorf("after re-index read %#x = %d, want 33", b, got)
	}
}
