// Package lsu implements the load-store unit of the SRV microarchitecture:
// a load queue (LQ), store-address queue (SAQ) and store-data queue (SDQ)
// with partial store-to-load forwarding (Witt), augmented with the SRV
// horizontal disambiguation logic of paper §III-B and §IV. Inside an SRV
// region, entries are keyed by (region instance, SRV-id, lane) and reused
// across replays; speculative store data stays buffered until the region
// commits, when the sequentially youngest store to each byte is written
// back (WAW resolution).
//
// The implementation is organised for the simulator's hot path: live
// entries sit on an intrusive list in allocation order (the order the old
// slice preserved), removed entries recycle through a free list pre-built
// from one slab so steady state allocates nothing, a fixed per-cacheline
// bucket table narrows every candidate search to the lines an access
// touches, and the CAM/disambiguation
// statistics — which model a hardware CAM that compares against every
// entry — are maintained arithmetically from live-entry counters so the
// index never changes what Fig 11/12 report. The region tables are
// map-free too: (instance, SRV-id, lane) lookups walk a fixed intrusive
// bucket table like the line index, and the per-instance counters sit in a
// short dense table, since only a few region instances are ever live at
// once. Both are built in New; only an LSU holding more than instSlots
// live instances grows its counter table.
package lsu

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"srvsim/internal/bitvec"
	"srvsim/internal/core"
	"srvsim/internal/isa"
)

// NoInstance marks entries that do not belong to an SRV region.
const NoInstance = -1

// lineShift selects the cacheline granule of the address index.
const lineShift = 6

// maxFootprint is the largest entry footprint in bytes (an 8-byte-element
// contiguous access): the size of each entry's slot in the SDQ data slab.
const maxFootprint = 8 * isa.NumLanes

// Entry is one LQ or SAQ/SDQ entry.
type Entry struct {
	Instance int   // region instance, or NoInstance
	ID       int   // SRV-id: program position (PC) of the owning instruction
	Lane     int   // lane for element entries; -1 for contig/bcast/scalar
	DispSeq  int64 // dispatch order (for squash)
	Seq      int64 // program-order sequence of the latest execution
	IsStore  bool

	Kind core.Kind
	Elem int
	Dir  isa.Direction

	Valid    bool            // address known (executed at least once)
	Addr     uint64          // base address of the footprint
	ActLanes bitvec.LaneMask // lanes whose access is architecturally performed

	// Store data (SDQ): a byte buffer plus a word-parallel validity bit
	// vector, one bit per footprint byte (paper §IV-A's bytes-accessed
	// vectors; at most 128 bits for an 8-byte-element contiguous store).
	Data      []byte
	valid     bitvec.Mask128
	Spec      bool // speculative flag: buffered until region commit
	Committed bool // reached ROB head (outside regions: data written back)

	// Queue plumbing (not architectural state).
	prev, next   *Entry // live list in allocation order; next doubles as the free-list link
	alloc        int64  // allocation stamp: position in the legacy slice order
	key          lsuKey // rebind identity (valid when inMap)
	inMap        bool   // holds a rebind identity, even if another entry owns it now
	keyed        bool   // owns key: on its keys bucket chain
	kprev, knext *Entry // keys bucket chain
	indexed      bool   // registered in the per-line address index
	idxLo, idxHi uint64 // registered line range
	bprev, bnext *Entry // line-index bucket chain (the bucket of idxLo)
}

// lsuKey identifies a region entry for the SRV-id reuse rule.
type lsuKey struct {
	instance, id, lane int
}

// Access returns the core access descriptor for the entry's footprint.
func (e *Entry) Access() core.Access {
	return core.Access{Kind: e.Kind, Lane: e.laneOr0(), Addr: e.Addr, Elem: e.Elem, Dir: e.Dir}
}

func (e *Entry) laneOr0() int {
	if e.Lane >= 0 {
		return e.Lane
	}
	return 0
}

// footprint returns the total byte size of the entry's access.
func (e *Entry) footprint() int {
	if e.Kind == core.KindContig {
		return e.Elem * isa.NumLanes
	}
	return e.Elem
}

// laneBoundsAt returns the lanes attributed to byte addr, restricted to
// architecturally active lanes for broadcast entries.
func (e *Entry) laneBoundsAt(addr uint64) (int, int) {
	return e.Access().LaneBounds(addr)
}

// sizeBuffers (re)sizes the SDQ byte buffer to fp zeroed bytes, reusing the
// capacity a recycled entry carries, and clears the validity vector.
func (e *Entry) sizeBuffers(fp int) {
	if cap(e.Data) >= fp {
		e.Data = e.Data[:fp]
		for i := range e.Data {
			e.Data[i] = 0
		}
	} else {
		e.Data = make([]byte, fp)
	}
	e.valid = bitvec.Mask128{}
}

// Stats aggregates the LSU event counts consumed by the evaluation figures
// (Fig 11: address disambiguations; Fig 12: CAM lookups via the power
// model).
type Stats struct {
	LoadIssues        int64
	StoreIssues       int64
	RegionLoadIssues  int64
	RegionStoreIssues int64

	// Address disambiguations (issuing access compared against one queue
	// entry). Vertical uses pure program order; horizontal is lane-aware.
	// The modelled CAM compares against every valid entry of the searched
	// queue, so these counters are derived from live-entry counts, not from
	// the (index-pruned) candidate walks.
	VertDisamb  int64
	HorizDisamb int64

	// CAM lookups per the McPAT accounting of paper §VI-C: a load issue
	// performs one SAQ lookup and one LQ lookup; a store issue one LQ
	// lookup. Inside an SRV region the lookups double and stores add one
	// extra SAQ lookup.
	CAMLookups int64

	FwdBytes      int64 // bytes forwarded from the SDQ
	MemBytes      int64 // bytes read from the memory hierarchy
	PartialFwds   int64 // loads combining SDQ and memory bytes
	WAWWritebacks int64 // bytes suppressed by selective write-back
	Overflows     int64

	// MaxOccupancy is the high-water mark of live entries — the LSU
	// pressure a region exerts, i.e. the headroom before the §III-D7
	// sequential fallback triggers.
	MaxOccupancy int
}

// LSU models the combined 64-entry load-store unit of Table I.
type LSU struct {
	capacity int
	mem      isa.Memory
	ctrl     *core.Controller
	Stats    Stats

	// OnRAW, when non-nil, observes each horizontal RAW violation with the
	// static PC of the violating store and the lanes marked for replay
	// (per-PC replay attribution). Pure observation — never serialised, no
	// architectural effect.
	OnRAW func(pc int, lanes isa.Pred)

	head, tail *Entry // live entries in allocation order
	live       int
	free       *Entry // recycled entries, linked through next
	allocSeq   int64

	keys  keyTable     // region entries for the SRV-id reuse rule
	insts []instCounts // one record per region instance with live entries

	// Valid-entry counters backing the CAM disambiguation statistics (the
	// per-instance ones are in insts).
	validStores       int
	validLoadsOutside int

	// Per-cacheline address index over valid entries, one table per queue.
	loadLines, storeLines lineIndex

	// Scratch buffers, reused across calls on the hot path.
	cands    []*Entry
	memAddrs []uint64
	byteBuf  [8]byte
	written  *bitvec.Set
	stores   []*Entry
	units    []fwdUnit
}

// instSlots is how many live region instances the counter table holds
// before it grows; the workload suite never has more than 3 live at once.
const instSlots = 8

// maxSlab caps the entries New builds up front. The capacity comes from a
// request's configuration, so an LSU larger than any the evaluation sweeps
// allocates its entries past the slab lazily instead of all at once.
const maxSlab = 1024

// New returns an LSU with the given total entry capacity. Its entries (up
// to maxSlab), their SDQ data buffers, both line-index tables, the key
// table and the instance table are carved from slabs sized here, so no
// entry is allocated while the LSU runs.
func New(capacity int, m isa.Memory, ctrl *core.Controller) *LSU {
	slab := min(max(capacity, 0), maxSlab)
	l := &LSU{
		capacity: capacity,
		mem:      m,
		ctrl:     ctrl,
		insts:    make([]instCounts, 0, instSlots),
		written:  bitvec.NewSet(),
		cands:    make([]*Entry, 0, slab),
		stores:   make([]*Entry, 0, slab),
		memAddrs: make([]uint64, 0, maxFootprint),
	}
	entries := make([]Entry, slab)
	data := make([]byte, slab*maxFootprint)
	for i := slab - 1; i >= 0; i-- {
		e := &entries[i]
		e.Data = data[i*maxFootprint : i*maxFootprint : (i+1)*maxFootprint]
		e.next = l.free
		l.free = e
	}
	n := 16
	for n < 2*slab {
		n <<= 1
	}
	buckets := make([]*Entry, 3*n)
	l.loadLines = lineIndex{buckets: buckets[:n:n], mask: uint64(n - 1)}
	l.storeLines = lineIndex{buckets: buckets[n : 2*n : 2*n], mask: uint64(n - 1)}
	l.keys = keyTable{buckets: buckets[2*n:], mask: uint64(n - 1)}
	return l
}

// Len returns the number of live entries.
func (l *LSU) Len() int { return l.live }

// Capacity returns the configured entry capacity.
func (l *LSU) Capacity() int { return l.capacity }

// ---- live list, free list, indexes ----

func (l *LSU) allocEntry() *Entry {
	e := l.free
	if e == nil {
		e = new(Entry)
	} else {
		l.free = e.next
		data := e.Data
		*e = Entry{}
		e.Data = data[:0]
	}
	l.allocSeq++
	e.alloc = l.allocSeq
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.live++
	if l.live > l.Stats.MaxOccupancy {
		l.Stats.MaxOccupancy = l.live
	}
	return e
}

// unlink removes a live entry: list, rebind map, address index and validity
// counters, then recycles it through the free list.
func (l *LSU) unlink(e *Entry) {
	if e.Valid {
		l.addValid(e, -1)
	}
	l.unindex(e)
	l.keys.remove(e)
	e.inMap = false
	if e.Instance != NoInstance {
		l.dropInst(e.Instance)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.live--
	e.prev = nil
	e.next = l.free
	l.free = e
}

// addValid adjusts the valid-entry counters for e by d: +1 when its address
// becomes known, -1 when it is freed.
func (l *LSU) addValid(e *Entry, d int) {
	switch {
	case e.IsStore:
		l.validStores += d
		if e.Instance != NoInstance {
			l.findInst(e.Instance).validStores += d
		}
	case e.Instance == NoInstance:
		l.validLoadsOutside += d
	default:
		l.findInst(e.Instance).validLoads += d
	}
}

// instCounts is one region instance's live-entry counters.
type instCounts struct {
	instance    int
	live        int // live entries
	validStores int // live entries with a known address, by queue
	validLoads  int
}

// findInst returns the counters of a region instance with live entries, or
// nil. The table holds a few records, so a scan beats hashing.
func (l *LSU) findInst(instance int) *instCounts {
	for i := range l.insts {
		if l.insts[i].instance == instance {
			return &l.insts[i]
		}
	}
	return nil
}

// inst returns a region instance's counters; an instance with no live
// entries reads zero.
func (l *LSU) inst(instance int) instCounts {
	if r := l.findInst(instance); r != nil {
		return *r
	}
	return instCounts{}
}

// addInst counts one more live entry of a region instance, adding its
// record on the first. Past instSlots live instances the table grows.
func (l *LSU) addInst(instance int) {
	if r := l.findInst(instance); r != nil {
		r.live++
		return
	}
	l.insts = append(l.insts, instCounts{instance: instance, live: 1})
}

// dropInst counts one live entry of a region instance fewer, dropping its
// record with the last.
func (l *LSU) dropInst(instance int) {
	r := l.findInst(instance)
	if r.live--; r.live > 0 {
		return
	}
	last := len(l.insts) - 1
	*r = l.insts[last]
	l.insts = l.insts[:last]
}

// keyTable finds a region entry by its (instance, SRV-id, lane) identity: a
// fixed power-of-two table of intrusive bucket chains, as lineIndex is. It
// holds at most one entry per identity, the one a lookup must return.
type keyTable struct {
	buckets []*Entry
	mask    uint64
}

func (t *keyTable) bucket(k lsuKey) **Entry {
	h := uint64(k.instance)*0x9E3779B97F4A7C15 ^ uint64(k.id)*0xBF58476D1CE4E5B9 ^ uint64(k.lane)
	return &t.buckets[(h^h>>31)&t.mask]
}

// lookup returns the entry that owns k, or nil.
func (t *keyTable) lookup(k lsuKey) *Entry {
	for e := *t.bucket(k); e != nil; e = e.knext {
		if e.key == k {
			return e
		}
	}
	return nil
}

// insert makes e the owner of e.key; no other entry may own it.
func (t *keyTable) insert(e *Entry) {
	at := t.bucket(e.key)
	e.kprev, e.knext = nil, *at
	if *at != nil {
		(*at).kprev = e
	}
	*at = e
	e.keyed = true
}

// remove gives up e's ownership of e.key, if it has it.
func (t *keyTable) remove(e *Entry) {
	if !e.keyed {
		return
	}
	if e.kprev != nil {
		e.kprev.knext = e.knext
	} else {
		*t.bucket(e.key) = e.knext
	}
	if e.knext != nil {
		e.knext.kprev = e.kprev
	}
	e.kprev, e.knext = nil, nil
	e.keyed = false
}

// claim makes e the owner of e.key, displacing any current owner. The
// displaced entry keeps its identity (inMap) but no lookup finds it.
func (t *keyTable) claim(e *Entry) {
	if old := t.lookup(e.key); old != nil {
		t.remove(old)
	}
	t.insert(e)
}

// lineIndex is the per-cacheline address index of one queue: a fixed
// power-of-two table of intrusive bucket chains. Each indexed entry sits on
// exactly one chain, the bucket of its first line, so the index holds the
// live entries and nothing else, and registering one never allocates.
type lineIndex struct {
	buckets []*Entry
	mask    uint64
	maxSpan uint64 // widest idxHi-idxLo registered: how far back a query looks
}

func (l *LSU) lineTable(isStore bool) *lineIndex {
	if isStore {
		return &l.storeLines
	}
	return &l.loadLines
}

// reindex registers a valid entry's current footprint in the per-line
// index, replacing any previous registration.
func (l *LSU) reindex(e *Entry) {
	lo := e.Addr >> lineShift
	hi := (e.Addr + uint64(e.footprint()) - 1) >> lineShift
	if e.indexed && lo == e.idxLo && hi == e.idxHi {
		return
	}
	l.unindex(e)
	// Chains stay in allocation order, so collect's sort has little to do.
	x := l.lineTable(e.IsStore)
	var prev *Entry
	at := &x.buckets[lo&x.mask]
	for *at != nil && (*at).alloc < e.alloc {
		prev = *at
		at = &prev.bnext
	}
	e.bprev, e.bnext = prev, *at
	if *at != nil {
		(*at).bprev = e
	}
	*at = e
	x.maxSpan = max(x.maxSpan, hi-lo)
	e.indexed, e.idxLo, e.idxHi = true, lo, hi
}

func (l *LSU) unindex(e *Entry) {
	if !e.indexed {
		return
	}
	if e.bprev != nil {
		e.bprev.bnext = e.bnext
	} else {
		x := l.lineTable(e.IsStore)
		x.buckets[e.idxLo&x.mask] = e.bnext
	}
	if e.bnext != nil {
		e.bnext.bprev = e.bprev
	}
	e.bprev, e.bnext = nil, nil
	e.indexed = false
}

// collect gathers the valid entries of one queue whose indexed footprint
// overlaps the line range of [addr, addr+n), sorted into allocation order
// so that tie-breaks match a front-to-back walk of the legacy entry slice.
// An overlapping entry's first line lies at most maxSpan lines before the
// range, so the walk covers those buckets too and keeps the entries whose
// line range overlaps exactly. Consecutive lines fall in distinct buckets,
// and the walk stops after one lap of the table, so no entry is seen twice.
// The returned slice is the LSU's scratch buffer: it is valid until the
// next collect call.
func (l *LSU) collect(isStore bool, addr uint64, n int) []*Entry {
	x := l.lineTable(isStore)
	out := l.cands[:0]
	lo := addr >> lineShift
	hi := (addr + uint64(n) - 1) >> lineShift
	first := lo - min(lo, x.maxSpan)
	walk := min(hi-first+1, uint64(len(x.buckets)))
	for i := uint64(0); i < walk; i++ {
		for e := x.buckets[(first+i)&x.mask]; e != nil; e = e.bnext {
			if e.idxLo <= hi && e.idxHi >= lo {
				out = append(out, e)
			}
		}
	}
	// Insertion sort: candidate sets are tiny and mostly ordered already.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].alloc < out[j-1].alloc; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	l.cands = out
	return out
}

// ReserveResult is the outcome of a dispatch-time reservation.
type ReserveResult struct {
	Entry    *Entry
	OK       bool
	Overflow bool // full and nothing can free before this region completes
}

// Reserve allocates an entry at dispatch, or rebinds to the existing entry
// with the same (instance, id, lane) — the SRV-id reuse rule for replays
// (paper §III-C: "during replay, no further entries are allocated; instead,
// entries with the same SRV-id are updated").
func (l *LSU) Reserve(instance, id, lane int, isStore bool, dispSeq int64) ReserveResult {
	if instance != NoInstance {
		if e := l.keys.lookup(lsuKey{instance, id, lane}); e != nil {
			e.DispSeq = dispSeq
			return ReserveResult{Entry: e, OK: true}
		}
	}
	if l.live >= l.capacity {
		// Overflow when every live entry belongs to this same region
		// instance: nothing can be freed before srv_end, which is
		// unreachable without more entries (paper §III-D7).
		overflow := instance != NoInstance && l.inst(instance).live == l.live
		if overflow {
			l.Stats.Overflows++
		}
		return ReserveResult{OK: false, Overflow: overflow}
	}
	e := l.allocEntry()
	e.Instance, e.ID, e.Lane, e.DispSeq, e.IsStore = instance, id, lane, dispSeq, isStore
	e.Seq = 0
	if instance != NoInstance {
		e.key = lsuKey{instance, id, lane}
		l.keys.insert(e)
		e.inMap = true
		l.addInst(instance)
	}
	return ReserveResult{Entry: e, OK: true}
}

// SetLane retargets a single-entry gather/scatter reservation at the lane
// executing this sequential-fallback pass (the dispatcher reserves such
// entries with lane -1). Routing the mutation through the LSU keeps the
// rebind index keyed by the entry's current identity.
func (l *LSU) SetLane(e *Entry, lane int) {
	if e.Lane == lane {
		return
	}
	e.Lane = lane
	if !e.inMap {
		return
	}
	l.keys.remove(e)
	e.key.lane = lane
	if old := l.keys.lookup(e.key); old != nil && old.alloc < e.alloc {
		// An older entry already claims this identity; a lookup must keep
		// finding it first, as a front-to-back scan would.
		e.inMap = false
		return
	}
	l.keys.claim(e)
}

// LoadResult reports a load execution's outcome.
type LoadResult struct {
	Vals     isa.Vec // per-lane values (elem entries fill Vals[lane])
	FwdBytes int
	MemBytes int
	MemAddrs []uint64 // distinct cache lines are derived by the pipeline;
	// aliases an LSU scratch buffer valid until the next ExecLoad
	WARSuppr bool // some forwarding was suppressed by the WAR rule
}

// ExecLoad executes (or re-executes) a load entry. update marks the lanes
// whose entry state must be refreshed (the replay mask inside a region; all
// lanes outside); act marks the lanes architecturally performing the access
// (update AND governing predicate). For elem entries only entry.Lane is
// consulted. Returns the loaded values for active lanes.
func (l *LSU) ExecLoad(e *Entry, kind core.Kind, addr uint64, elem int, dir isa.Direction,
	update, act isa.Pred, seq int64) LoadResult {

	l.noteIssue(e, false)
	e.Kind, e.Elem, e.Dir, e.Seq = kind, elem, dir, seq
	actMask := core.PredMask(act)
	if e.Instance == NoInstance {
		if !e.Valid {
			e.Valid = true
			l.addValid(e, 1)
		}
		e.Addr, e.ActLanes = addr, actMask
	} else {
		// Merge: refresh only updated lanes; keep previous rounds' state on
		// the rest (paper §III-C).
		if !e.Valid {
			e.Addr, e.Valid = addr, true
			e.ActLanes = 0
			l.addValid(e, 1)
		} else if kind == core.KindElem {
			if update[e.Lane] {
				e.Addr = addr
			}
		} else {
			e.Addr = addr // base registers are loop-invariant inside a region
		}
		updateMask := core.PredMask(update)
		e.ActLanes = e.ActLanes&^updateMask | actMask&updateMask
	}
	l.reindex(e)

	// The hardware CAM compares the issuing load against every valid SAQ
	// entry — each comparison is one address disambiguation (Fig 11) —
	// but only entries overlapping the footprint can forward, so the
	// candidate walk below is pruned by the line index.
	horiz := int64(0)
	if e.Instance != NoInstance {
		horiz = int64(l.inst(e.Instance).validStores)
	}
	l.Stats.HorizDisamb += horiz
	l.Stats.VertDisamb += int64(l.validStores) - horiz

	footEnd := addr + uint64(e.footprint())
	cands := l.collect(true, addr, e.footprint())
	kept := cands[:0]
	for _, st := range cands {
		if st.Addr >= footEnd || addr >= st.Addr+uint64(st.footprint()) {
			continue
		}
		kept = append(kept, st)
	}
	cands = kept

	var res LoadResult
	res.MemAddrs = l.memAddrs[:0]
	warSuppressed := false
	resolve := func(la uint64, lane int) int64 {
		v, w := l.resolveLoad(e, cands, la, elem, lane, &res)
		warSuppressed = warSuppressed || w
		return v
	}
	switch kind {
	case core.KindContig:
		for lane := 0; lane < isa.NumLanes; lane++ {
			if !act[lane] {
				continue
			}
			off := lane
			if dir == isa.DirDown {
				off = isa.NumLanes - 1 - lane
			}
			res.Vals[lane] = resolve(addr+uint64(off*elem), lane)
		}
	case core.KindElem:
		if act[e.Lane] {
			res.Vals[e.Lane] = resolve(addr, e.Lane)
		}
	case core.KindBcast:
		for lane := 0; lane < isa.NumLanes; lane++ {
			if act[lane] {
				res.Vals[lane] = resolve(addr, lane)
			}
		}
	case core.KindScalar:
		res.Vals[0] = resolve(addr, 0)
	}
	l.memAddrs = res.MemAddrs[:0]
	if warSuppressed {
		res.WARSuppr = true
		l.ctrl.RecordWAR()
	}
	return res
}

// fwdUnit is one constant-ordering forwarding source for the claim walk: a
// candidate store entry (or one lane slot of a contiguous store, whose
// sequential position varies per slot) with the window-relative bytes it
// may supply. The masks are word-parallel: a unit claims all its bytes in
// one AND-NOT.
type fwdUnit struct {
	st      *Entry
	key     forwardKey
	allowed uint64 // window-relative forwardable bytes (ByteValid & ordering)
}

// resolveLoad assembles one lane's value: each byte comes from the
// sequentially youngest older store entry holding it, else from memory
// (partial store-to-load forwarding; paper §III-B1 / Witt). Candidates are
// decomposed into constant-ordering units whose byte masks claim the
// window youngest-first — bit-identical to a per-byte youngest scan, with
// the per-byte key comparisons replaced by word-parallel mask ops. The
// second result reports whether the WAR rule suppressed any forwarding.
func (l *LSU) resolveLoad(e *Entry, cands []*Entry, addr uint64, n, lane int, res *LoadResult) (int64, bool) {
	buf := l.byteBuf[:n]
	l.mem.ReadBytes(addr, buf)
	war := false
	eRegion := e.Instance != NoInstance
	winEnd := addr + uint64(n)
	units := l.units[:0]
	for _, st := range cands {
		stEnd := st.Addr + uint64(st.footprint())
		if addr >= stEnd || st.Addr >= winEnd {
			continue
		}
		// Window-relative valid bytes: window byte w maps to footprint
		// offset addr+w-st.Addr.
		var vbits uint64
		if addr >= st.Addr {
			vbits = st.valid.Window(int(addr-st.Addr), n)
		} else {
			d := int(st.Addr - addr)
			vbits = st.valid.Window(0, n-d) << uint(d)
		}
		if vbits == 0 {
			continue // nothing to forward and no WAR to report
		}
		stRegion := st.Instance != NoInstance
		switch {
		case eRegion && stRegion:
			if st.Instance != e.Instance {
				continue // entries of a different region instance never forward
			}
			if st.Kind == core.KindContig {
				// One unit per store lane slot the window touches; the
				// slot's sequential position (its lane) is constant.
				elem := uint64(st.Elem)
				ovLo, ovHi := addr, winEnd // overlap [ovLo, ovHi)
				if st.Addr > ovLo {
					ovLo = st.Addr
				}
				if stEnd < ovHi {
					ovHi = stEnd
				}
				first := int((ovLo - st.Addr) / elem)
				last := int((ovHi - 1 - st.Addr) / elem)
				for idx := first; idx <= last; idx++ {
					sLane := idx
					if st.Dir == isa.DirDown {
						sLane = isa.NumLanes - 1 - idx
					}
					sLo := st.Addr + uint64(idx)*elem
					sHi := sLo + elem
					if sLo < addr {
						sLo = addr
					}
					if sHi > winEnd {
						sHi = winEnd
					}
					slotBits := windowRange(int(sLo-addr), int(sHi-sLo)) & vbits
					if slotBits == 0 {
						continue
					}
					if core.Forwardable(sLane, st.ID, lane, e.ID) {
						units = append(units, fwdUnit{st, forwardKey{region: true, lane: sLane, id: st.ID}, slotBits})
					} else if sLane > lane {
						war = true // cross-lane rejection = WAR
					}
				}
			} else {
				// Elem / broadcast / scalar: constant lane attribution.
				sHi := isa.NumLanes - 1
				if st.Kind == core.KindElem {
					sHi = st.Lane
				}
				if core.Forwardable(sHi, st.ID, lane, e.ID) {
					units = append(units, fwdUnit{st, forwardKey{region: true, lane: sHi, id: st.ID}, vbits})
				} else if sHi > lane {
					war = true
				}
			}
		case eRegion && !stRegion:
			// Pre-region store: program-order older by construction (the
			// srv_start issue gate orders region loads after older stores).
			if st.Seq > e.Seq {
				continue
			}
			units = append(units, fwdUnit{st, forwardKey{seq: st.Seq}, vbits})
		case !eRegion && stRegion:
			continue // speculative region data never forwards outside
		default:
			if st.Seq > e.Seq {
				continue // vertical: younger stores never forward
			}
			units = append(units, fwdUnit{st, forwardKey{seq: st.Seq}, vbits})
		}
	}
	l.units = units[:0]

	// Youngest-first, stable: equal keys keep allocation order, so the
	// first-seen entry wins ties exactly as a front-to-back byte scan did.
	for i := 1; i < len(units); i++ {
		for j := i; j > 0 && units[j].key.younger(units[j-1].key); j-- {
			units[j], units[j-1] = units[j-1], units[j]
		}
	}
	var claimed uint64
	for i := range units {
		u := &units[i]
		take := u.allowed &^ claimed
		if take == 0 {
			continue
		}
		claimed |= take
		base := int(int64(addr) - int64(u.st.Addr)) // window byte w -> footprint offset base+w
		for t := take; t != 0; t &= t - 1 {
			w := bits.TrailingZeros64(t)
			buf[w] = u.st.Data[base+w]
		}
	}
	fwd := bits.OnesCount64(claimed)
	mem := n - fwd
	for w := 0; w < n; w++ {
		if claimed&(1<<uint(w)) == 0 {
			res.MemAddrs = append(res.MemAddrs, addr+uint64(w))
		}
	}
	res.FwdBytes += fwd
	res.MemBytes += mem
	l.Stats.FwdBytes += int64(fwd)
	l.Stats.MemBytes += int64(mem)
	if fwd > 0 && mem > 0 {
		l.Stats.PartialFwds++
	}
	return isa.DecodeInt(buf), war
}

// windowRange returns a window-relative mask with bits [off, off+n) set.
func windowRange(off, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0) << uint(off)
	}
	return (uint64(1)<<uint(n) - 1) << uint(off)
}

// forwardKey orders candidate forwarding sources: region entries are younger
// than pre-region entries; among region entries sequential (byte-lane, id)
// order decides; among non-region entries program order decides.
type forwardKey struct {
	region bool
	lane   int
	id     int
	seq    int64
}

func (k forwardKey) younger(o forwardKey) bool {
	if k.region != o.region {
		return k.region
	}
	if k.region {
		if k.lane != o.lane {
			return k.lane > o.lane
		}
		return k.id > o.id
	}
	return k.seq > o.seq
}

// StoreResult reports a store execution's outcome.
type StoreResult struct {
	RAWLanes isa.Pred // lanes recorded into SRV-needs-replay
	WAW      bool     // overlapped an older store in a later lane

	// Vertical RAW: a program-order-younger load already executed with
	// overlapping bytes (aggressive memory-order speculation gone wrong).
	// The pipeline squashes from that load and retrains the store-set
	// predictor (paper §IV-B).
	SquashSeq int64 // dispatch seq of the oldest violating load; -1 if none
	SquashPC  int   // its program counter
}

// ExecStore executes (or re-executes) a store entry, buffering data in the
// SDQ and performing the horizontal checks of paper §III-B2: LQ entries in
// sequentially younger positions that already read overlapping bytes are
// RAW victims (their lanes are recorded for replay); SAQ entries in later
// lanes with overlapping bytes are WAW conflicts (resolved by write-back
// order).
func (l *LSU) ExecStore(e *Entry, kind core.Kind, addr uint64, elem int, dir isa.Direction,
	update, act isa.Pred, vals isa.Vec, seq int64) StoreResult {

	l.noteIssue(e, true)
	e.Kind, e.Elem, e.Dir, e.Seq = kind, elem, dir, seq
	fp := 0
	if kind == core.KindContig {
		fp = elem * isa.NumLanes
	} else {
		fp = elem
	}
	if !e.Valid || e.Instance == NoInstance {
		if !e.Valid {
			e.Valid = true
			l.addValid(e, 1)
		}
		e.Addr = addr
		e.sizeBuffers(fp)
		e.ActLanes = 0
		e.Spec = e.Instance != NoInstance && l.ctrl.Mode() == core.ModeSpeculative
	} else if kind == core.KindElem {
		if update[e.Lane] && e.Addr != addr {
			e.Addr = addr
			// The footprint moved: previous-round bytes are superseded.
			e.valid = bitvec.Mask128{}
		}
	}

	// Refresh data for updated lanes.
	switch kind {
	case core.KindContig:
		for lane := 0; lane < isa.NumLanes; lane++ {
			if !update[lane] {
				continue
			}
			off := lane
			if dir == isa.DirDown {
				off = isa.NumLanes - 1 - lane
			}
			isa.PutInt(e.Data[off*elem:(off+1)*elem], elem, vals[lane])
			if act[lane] {
				e.ActLanes |= 1 << uint(lane)
				e.valid.SetRange(off*elem, elem)
			} else {
				e.ActLanes &^= 1 << uint(lane)
				e.valid.ClearRange(off*elem, elem)
			}
		}
	case core.KindElem:
		if update[e.Lane] {
			isa.PutInt(e.Data[:elem], elem, vals[e.Lane])
			if act[e.Lane] {
				e.ActLanes = 1 << uint(e.Lane)
				e.valid = bitvec.Range128(0, elem)
			} else {
				e.ActLanes = 0
				e.valid = bitvec.Mask128{}
			}
		}
	case core.KindScalar:
		isa.PutInt(e.Data, elem, vals[0])
		e.valid = bitvec.Range128(0, len(e.Data))
	default:
		panic(fmt.Sprintf("lsu: store kind %v unsupported (pc=%d seq=%d lane=%d instance=%d addr=%#x)",
			kind, e.ID, seq, e.Lane, e.Instance, addr))
	}
	l.reindex(e)

	var res StoreResult
	res.SquashSeq = -1
	if e.Instance == NoInstance || l.ctrl.Mode() != core.ModeSpeculative {
		// Vertical disambiguation: search the LQ for younger loads that
		// already read bytes this store produces. The CAM compares against
		// every valid non-region load; only line-overlapping ones can
		// violate.
		l.Stats.VertDisamb += int64(l.validLoadsOutside)
		for _, ld := range l.collect(false, addr, fp) {
			if ld.Instance != NoInstance {
				continue
			}
			if ld.Seq <= e.Seq {
				continue
			}
			if e.Access().Overlaps(ld.Access()) {
				if res.SquashSeq < 0 || ld.Seq < res.SquashSeq {
					res.SquashSeq, res.SquashPC = ld.Seq, ld.ID
				}
			}
		}
		return res
	}

	// Horizontal RAW: sequentially younger loads that already read bytes of
	// this store. Loads at later program positions whose lanes are being
	// re-executed this round will pick the fresh data up via forwarding and
	// are skipped, as are bytes of store lanes not updated this round (their
	// data is unchanged and was already forwarded or flagged).
	l.Stats.HorizDisamb += int64(l.inst(e.Instance).validLoads)
	replayMask := core.PredMask(l.ctrl.Replay())
	updateMask := core.PredMask(update)
	iss := e.Access()
	var rawMask bitvec.LaneMask
	for _, ld := range l.collect(false, addr, fp) {
		if ld.Instance != e.Instance {
			continue
		}
		// Word-parallel: violating lanes restricted to lanes the load
		// architecturally performed (elem loads have per-lane footprints;
		// contig per-lane spans are encoded in the Access lane attribution
		// already). Lanes being re-read after this store in this round pick
		// the fresh data up via forwarding instead.
		viol := core.ViolatingLaneMask(iss, ld.Access(), updateMask) & ld.ActLanes
		if ld.ID > e.ID {
			viol &^= replayMask
		}
		rawMask |= viol
	}
	if rawMask.Any() {
		res.RAWLanes = core.MaskPred(rawMask)
		l.ctrl.RecordRAW(res.RAWLanes)
		if l.OnRAW != nil {
			l.OnRAW(e.ID, res.RAWLanes)
		}
	}

	// Horizontal WAW: older stores in later lanes covering common bytes.
	l.Stats.HorizDisamb += int64(l.inst(e.Instance).validStores - 1)
	for _, st := range l.collect(true, addr, fp) {
		if st == e || st.Instance != e.Instance {
			continue
		}
		if core.ViolatingLaneMask(iss, st.Access(), core.AllLanes).Any() && iss.Overlaps(st.Access()) {
			res.WAW = true
		}
	}
	if res.WAW {
		l.ctrl.RecordWAW()
	}
	return res
}

// noteIssue updates the issue counters and CAM-lookup accounting.
func (l *LSU) noteIssue(e *Entry, isStore bool) {
	region := e.Instance != NoInstance && l.ctrl.Mode() == core.ModeSpeculative
	if isStore {
		l.Stats.StoreIssues++
		if region {
			l.Stats.RegionStoreIssues++
			// Doubled lookups plus one extra SAQ lookup (paper §VI-C).
			l.Stats.CAMLookups += 2 + 1
		} else {
			l.Stats.CAMLookups++ // one LQ lookup
		}
	} else {
		l.Stats.LoadIssues++
		if region {
			l.Stats.RegionLoadIssues++
			l.Stats.CAMLookups += 2 // horizontal replaces vertical; lookups unchanged in count but both queues searched
		} else {
			l.Stats.CAMLookups += 2 // SAQ + LQ
		}
	}
}

// CommitStore writes a non-speculative store's data to memory and releases
// the entry (outside regions, or fallback-mode region stores).
func (l *LSU) CommitStore(e *Entry) {
	if e.Spec {
		e.Committed = true // data stays buffered (paper §III-D4)
		return
	}
	l.writeEntry(e)
	l.unlink(e)
}

// Release frees a load entry (at commit, outside regions).
func (l *LSU) Release(e *Entry) {
	if e.Instance != NoInstance {
		return // region entries live until region commit
	}
	l.unlink(e)
}

// DebugWatch, when non-zero, prints every entry write-back covering the
// address. Test-only instrumentation.
var DebugWatch uint64

func (l *LSU) writeEntry(e *Entry) {
	if DebugWatch != 0 {
		fmt.Printf("  writeEntry id=%d lane=%d inst=%d seq=%d addr=%#x\n",
			e.ID, e.Lane, e.Instance, e.Seq, e.Addr)
	}
	// Batch runs of valid bytes into single memory writes.
	for off, n := e.valid.NextRun(0); n > 0; off, n = e.valid.NextRun(off + n) {
		l.mem.WriteBytes(e.Addr+uint64(off), e.Data[off:off+n])
	}
}

// collectStores gathers the valid stores of a region instance in allocation
// order into the reusable scratch slice.
func (l *LSU) collectStores(instance int) []*Entry {
	stores := l.stores[:0]
	for e := l.head; e != nil; e = e.next {
		if e.Instance == instance && e.IsStore && e.Valid {
			stores = append(stores, e)
		}
	}
	l.stores = stores
	return stores
}

// CommitRegion writes back the speculative stores of a region instance in
// sequential (iteration-major) order so that the youngest store to each
// byte wins, then frees every entry of the instance (paper §III-B3, §III-D4).
func (l *LSU) CommitRegion(instance int) {
	stores := l.collectStores(instance)
	slices.SortFunc(stores, cmpStoreSeq)
	written := l.written
	written.Reset()
	for i := len(stores) - 1; i >= 0; i-- { // youngest first; skip overwritten bytes
		e := stores[i]
		// Walk the footprint one alignment region at a time: the entry's
		// valid bytes AND the already-written mask resolve a whole region's
		// WAW suppression in two word operations (paper §IV-A).
		fp := len(e.Data)
		for fpOff := 0; fpOff < fp; {
			a := e.Addr + uint64(fpOff)
			base := bitvec.Base(a)
			rOff := bitvec.Offset(a)
			cnt := bitvec.RegionSize - rOff
			if cnt > fp-fpOff {
				cnt = fp - fpOff
			}
			vm := bitvec.Mask(e.valid.Window(fpOff, cnt)) << uint(rOff)
			if vm != 0 {
				w := written.Get(base)
				l.Stats.WAWWritebacks += int64((vm & w).Count())
				take := vm &^ w
				written.Add(bitvec.RegionMask{Base: base, Mask: take})
				t := bitvec.Mask128{uint64(take)}
				for off, n := t.NextRun(0); n > 0; off, n = t.NextRun(off + n) {
					d := fpOff + off - rOff
					l.mem.WriteBytes(base+uint64(off), e.Data[d:d+n])
				}
			}
			fpOff += cnt
		}
	}
	l.freeInstance(instance)
}

// cmpStoreSeq orders two same-instance store entries in sequential
// (iteration-major) order. Contiguous stores span all lanes; they are
// ordered against element entries by their lowest active lane, with ID as
// the within-lane tie-break. For byte-accurate WAW resolution the
// youngest-first walk above relies on per-byte coverage, so this ordering
// only needs to be consistent for entries covering the same byte — which
// have well-defined lanes at that byte. Contiguous-vs-element collisions on
// a byte order by the byte's lane, which equals the element's lane when they
// collide; ID breaks the tie.
func cmpStoreSeq(a, b *Entry) int {
	la, lb := a.laneOr0(), b.laneOr0()
	if a.Kind == core.KindContig || b.Kind == core.KindContig {
		// Same-byte collisions between contiguous entries (same lane at the
		// byte) and element entries reduce to ID order when lanes tie.
		if a.Kind == core.KindContig && b.Kind == core.KindContig {
			return cmp.Compare(a.ID, b.ID)
		}
		// Compare the element entry's lane against the contiguous entry's
		// lane at the element's address.
		if a.Kind == core.KindContig {
			la, _ = a.Access().LaneBounds(clampAddr(b.Addr, a))
		} else {
			lb, _ = b.Access().LaneBounds(clampAddr(a.Addr, b))
		}
	}
	if la != lb {
		return cmp.Compare(la, lb)
	}
	return cmp.Compare(a.ID, b.ID)
}

func clampAddr(addr uint64, e *Entry) uint64 {
	if addr < e.Addr {
		return e.Addr
	}
	end := e.Addr + uint64(e.footprint()) - 1
	if addr > end {
		return end
	}
	return addr
}

// WritebackNonSpec writes back the non-speculative portion of a region at an
// interrupt (paper §III-D2): all data from lanes older than oldestLane, plus
// the oldest lane's stores at program positions before uptoID. The rest is
// discarded with the instance.
func (l *LSU) WritebackNonSpec(instance, oldestLane, uptoID int) {
	stores := l.collectStores(instance)
	slices.SortFunc(stores, cmpStoreSeq)
	nonSpec := func(lo int, e *Entry) bool {
		return lo < oldestLane || (lo == oldestLane && e.ID < uptoID)
	}
	writeMasked := func(e *Entry, m bitvec.Mask128) {
		for off, n := m.NextRun(0); n > 0; off, n = m.NextRun(off + n) {
			l.mem.WriteBytes(e.Addr+uint64(off), e.Data[off:off+n])
		}
	}
	for _, e := range stores {
		if e.Kind != core.KindContig {
			// Elem entries sit wholly in one lane; scalar entries attribute
			// to the pseudo-lane range starting at 0. One test per entry.
			lo := 0
			if e.Kind == core.KindElem {
				lo = e.Lane
			}
			if nonSpec(lo, e) {
				writeMasked(e, e.valid)
			}
			continue
		}
		// Contiguous: one lane per element slot, walked in byte order so
		// write ordering matches the per-byte reference.
		for idx := 0; idx < isa.NumLanes; idx++ {
			lane := idx
			if e.Dir == isa.DirDown {
				lane = isa.NumLanes - 1 - idx
			}
			if nonSpec(lane, e) {
				writeMasked(e, e.valid.And(bitvec.Range128(idx*e.Elem, e.Elem)))
			}
		}
	}
	l.freeInstance(instance)
}

// DiscardRegion frees all entries of an instance without writing anything.
func (l *LSU) DiscardRegion(instance int) {
	l.freeInstance(instance)
}

// SquashYounger removes entries dispatched after dispSeq that are not part
// of a still-live older region pass.
func (l *LSU) SquashYounger(dispSeq int64) {
	for e := l.head; e != nil; {
		next := e.next
		if e.DispSeq > dispSeq && !(e.IsStore && e.Committed) {
			l.unlink(e)
		}
		e = next
	}
}

func (l *LSU) freeInstance(instance int) {
	for e := l.head; e != nil; {
		next := e.next
		if e.Instance == instance {
			l.unlink(e)
		}
		e = next
	}
}

// Entries exposes a snapshot of live entries for tests and debug dumps, in
// allocation order. Returns nil without allocating when the LSU is empty.
func (l *LSU) Entries() []*Entry {
	if l.live == 0 {
		return nil
	}
	out := make([]*Entry, 0, l.live)
	for e := l.head; e != nil; e = e.next {
		out = append(out, e)
	}
	return out
}
