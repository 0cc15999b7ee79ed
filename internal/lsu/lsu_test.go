package lsu

import (
	"testing"

	"srvsim/internal/core"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

func newLSU(capacity int) (*LSU, *mem.Image, *core.Controller) {
	im := mem.NewImage()
	ctrl := &core.Controller{}
	return New(capacity, im, ctrl), im, ctrl
}

func all() isa.Pred { return isa.AllTrue() }

func onlyLane(l int) isa.Pred {
	var p isa.Pred
	p[l] = true
	return p
}

func vecOf(f func(i int) int64) isa.Vec {
	var v isa.Vec
	for i := range v {
		v[i] = f(i)
	}
	return v
}

// reserve is a test helper that fails the test on allocation failure.
func reserve(t *testing.T, l *LSU, instance, id, lane int, isStore bool, seq int64) *Entry {
	t.Helper()
	r := l.Reserve(instance, id, lane, isStore, seq)
	if !r.OK {
		t.Fatalf("Reserve(%d,%d,%d) failed", instance, id, lane)
	}
	return r.Entry
}

func TestNonRegionForwarding(t *testing.T) {
	l, im, _ := newLSU(64)
	im.WriteInt(0x1000, 4, 11)
	// Older store writes 99; younger load must forward it.
	st := reserve(t, l, NoInstance, 10, -1, true, 1)
	l.ExecStore(st, core.KindScalar, 0x1000, 4, isa.DirUp, all(), all(), isa.Vec{0: 99}, 1)
	ld := reserve(t, l, NoInstance, 11, -1, false, 2)
	res := l.ExecLoad(ld, core.KindScalar, 0x1000, 4, isa.DirUp, all(), all(), 2)
	if res.Vals[0] != 99 {
		t.Errorf("forwarded value = %d, want 99", res.Vals[0])
	}
	if res.FwdBytes != 4 || res.MemBytes != 0 {
		t.Errorf("fwd/mem = %d/%d, want 4/0", res.FwdBytes, res.MemBytes)
	}
}

func TestNonRegionYoungerStoreDoesNotForward(t *testing.T) {
	l, im, _ := newLSU(64)
	im.WriteInt(0x1000, 4, 11)
	// Store is program-order YOUNGER than the load (seq 5 > 2): must not
	// forward; the load reads memory.
	st := reserve(t, l, NoInstance, 12, -1, true, 5)
	l.ExecStore(st, core.KindScalar, 0x1000, 4, isa.DirUp, all(), all(), isa.Vec{0: 99}, 5)
	ld := reserve(t, l, NoInstance, 11, -1, false, 2)
	res := l.ExecLoad(ld, core.KindScalar, 0x1000, 4, isa.DirUp, all(), all(), 2)
	if res.Vals[0] != 11 {
		t.Errorf("value = %d, want memory's 11", res.Vals[0])
	}
}

func TestPartialForwarding(t *testing.T) {
	// Paper §III-B1: a load may combine bytes from the SDQ and the cache.
	l, im, _ := newLSU(64)
	for i := 0; i < 8; i++ {
		im.WriteInt(0x1000+uint64(i), 1, 0x10+int64(i))
	}
	st := reserve(t, l, NoInstance, 10, -1, true, 1)
	l.ExecStore(st, core.KindScalar, 0x1000, 4, isa.DirUp, all(), all(), isa.Vec{0: -1}, 1) // bytes 0..3 = 0xFF
	ld := reserve(t, l, NoInstance, 11, -1, false, 2)
	res := l.ExecLoad(ld, core.KindScalar, 0x1002, 4, isa.DirUp, all(), all(), 2)
	// Bytes: 0x1002,0x1003 forwarded (0xFF), 0x1004,0x1005 from memory.
	want := int64(0x15)<<24 | int64(0x14)<<16 | 0xFFFF
	if res.Vals[0] != want {
		t.Errorf("value = %#x, want %#x", res.Vals[0], want)
	}
	if res.FwdBytes != 2 || res.MemBytes != 2 {
		t.Errorf("fwd/mem = %d/%d, want 2/2", res.FwdBytes, res.MemBytes)
	}
	if l.Stats.PartialFwds != 1 {
		t.Errorf("partial forwards = %d, want 1", l.Stats.PartialFwds)
	}
}

func TestCommitStoreWritesMemory(t *testing.T) {
	l, im, _ := newLSU(64)
	st := reserve(t, l, NoInstance, 10, -1, true, 1)
	l.ExecStore(st, core.KindScalar, 0x2000, 8, isa.DirUp, all(), all(), isa.Vec{0: 1234}, 1)
	if got := im.ReadInt(0x2000, 8); got != 0 {
		t.Error("store must not reach memory before commit")
	}
	l.CommitStore(st)
	if got := im.ReadInt(0x2000, 8); got != 1234 {
		t.Errorf("memory after commit = %d, want 1234", got)
	}
	if l.Len() != 0 {
		t.Errorf("entry not freed at commit: len=%d", l.Len())
	}
}

func TestRegionVerticalForwardingFig3(t *testing.T) {
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	for i := 0; i < 16; i++ {
		im.WriteInt(0xAB10+uint64(i), 1, int64(i))
	}
	st := reserve(t, l, 0, 2, -1, true, 1)
	l.ExecStore(st, core.KindContig, 0xAB10, 1, isa.DirUp, all(), all(), vecOf(func(i int) int64 { return 70 + int64(i) }), 1)
	ld := reserve(t, l, 0, 4, -1, false, 2)
	res := l.ExecLoad(ld, core.KindContig, 0xAB10, 1, isa.DirUp, all(), all(), 2)
	for i := 0; i < 16; i++ {
		if res.Vals[i] != 70+int64(i) {
			t.Errorf("lane %d = %d, want forwarded %d", i, res.Vals[i], 70+int64(i))
		}
	}
	if res.MemBytes != 0 {
		t.Errorf("mem bytes = %d, want 0 (fully forwardable)", res.MemBytes)
	}
	if ctrl.NeedsReplay().Any() {
		t.Error("vertical dependence must not set needs-replay")
	}
}

func TestRegionWARSuppressionFig4(t *testing.T) {
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	for i := 0; i < 32; i++ {
		im.WriteInt(0xAB10+uint64(i), 1, int64(i))
	}
	st := reserve(t, l, 0, 2, -1, true, 1)
	l.ExecStore(st, core.KindContig, 0xAB10, 1, isa.DirUp, all(), all(), vecOf(func(i int) int64 { return 99 }), 1)
	// Load at +8: overlapped store bytes belong to LATER lanes — WAR, so
	// memory values must be used for every lane.
	ld := reserve(t, l, 0, 4, -1, false, 2)
	res := l.ExecLoad(ld, core.KindContig, 0xAB18, 1, isa.DirUp, all(), all(), 2)
	for i := 0; i < 16; i++ {
		if res.Vals[i] != int64(i+8) {
			t.Errorf("lane %d = %d, want memory value %d", i, res.Vals[i], i+8)
		}
	}
	if !res.WARSuppr {
		t.Error("WAR suppression must be reported")
	}
	if ctrl.Stats.WARViol != 1 {
		t.Errorf("WAR violations = %d, want 1", ctrl.Stats.WARViol)
	}
	if ctrl.NeedsReplay().Any() {
		t.Error("WAR is resolved immediately, not by replay")
	}
}

func TestRegionScatterRAWFig5(t *testing.T) {
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	for i := 0; i < 16; i++ {
		im.WriteInt(0xFF00+uint64(i*4), 4, int64(i*3+1))
	}
	// v_load a[0:15] executes first (program position 2).
	ld := reserve(t, l, 0, 2, -1, false, 1)
	l.ExecLoad(ld, core.KindContig, 0xFF00, 4, isa.DirUp, all(), all(), 1)
	// Scatter (position 5) writes a[x[i]] with x = {3,0,1,2,7,4,5,6,...}.
	xs := []int{3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14}
	var raw isa.Pred
	for lane, xi := range xs {
		st := reserve(t, l, 0, 5, lane, true, 2)
		r := l.ExecStore(st, core.KindElem, 0xFF00+uint64(xi*4), 4, isa.DirUp,
			onlyLane(lane), onlyLane(lane), vecOf(func(int) int64 { return 500 + int64(lane) }), 2)
		for i, b := range r.RAWLanes {
			if b {
				raw[i] = true
			}
		}
	}
	want := isa.Pred{}
	want[3], want[7], want[11], want[15] = true, true, true, true
	if raw != want {
		t.Errorf("RAW lanes = %v, want {3,7,11,15}", raw)
	}
	if ctrl.NeedsReplay() != want {
		t.Errorf("needs-replay = %v, want {3,7,11,15}", ctrl.NeedsReplay())
	}
}

// TestRegionForwardingLaneRules checks forwarding and WAR on the LSU path
// for the paper's cases beyond Figs 3-5: Fig 4 with the load below the
// store, the §IV-C2 lane rule between gather and scatter elements, and
// Fig 4 under a DOWN region, where lanes run against the addresses.
func TestRegionForwardingLaneRules(t *testing.T) {
	type acc struct {
		kind core.Kind
		lane int // entry lane for KindElem, -1 otherwise
		addr uint64
		elem int
	}
	cases := []struct {
		name    string
		dir     isa.Direction
		st, ld  acc
		wantFwd int
		wantWAR bool
	}{
		// Fig 4 reversed: store lanes 0-7 feed load lanes 8-15.
		{"fig4_reversed", isa.DirUp,
			acc{core.KindContig, -1, 0xAB18, 1}, acc{core.KindContig, -1, 0xAB10, 1}, 8, false},
		// §IV-C2: load element lane >= store element lane forwards ...
		{"elem_later_lane_forwards", isa.DirUp,
			acc{core.KindElem, 5, 0x1000, 4}, acc{core.KindElem, 9, 0x1000, 4}, 4, false},
		// ... and an earlier load lane reads memory past a WAR.
		{"elem_earlier_lane_war", isa.DirUp,
			acc{core.KindElem, 5, 0x1000, 4}, acc{core.KindElem, 2, 0x1000, 4}, 0, true},
		// Fig 4 under DOWN: the load above the store meets earlier store
		// lanes and forwards; the load below meets later ones.
		{"down_load_above_forwards", isa.DirDown,
			acc{core.KindContig, -1, 0xAB10, 1}, acc{core.KindContig, -1, 0xAB18, 1}, 8, false},
		{"down_load_below_war", isa.DirDown,
			acc{core.KindContig, -1, 0xAB10, 1}, acc{core.KindContig, -1, 0xAB08, 1}, 0, true},
	}
	lanes := func(a acc) isa.Pred {
		if a.kind == core.KindElem {
			return onlyLane(a.lane)
		}
		return all()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, _, ctrl := newLSU(64)
			must(t, ctrl.Start(1, c.dir))
			st := reserve(t, l, 0, 2, c.st.lane, true, 1)
			l.ExecStore(st, c.st.kind, c.st.addr, c.st.elem, c.dir, lanes(c.st), lanes(c.st),
				vecOf(func(int) int64 { return 99 }), 1)
			ld := reserve(t, l, 0, 4, c.ld.lane, false, 2)
			res := l.ExecLoad(ld, c.ld.kind, c.ld.addr, c.ld.elem, c.dir, lanes(c.ld), lanes(c.ld), 2)
			if res.FwdBytes != c.wantFwd {
				t.Errorf("forwarded bytes = %d, want %d", res.FwdBytes, c.wantFwd)
			}
			if res.WARSuppr != c.wantWAR {
				t.Errorf("WAR suppression = %v, want %v", res.WARSuppr, c.wantWAR)
			}
			if ctrl.NeedsReplay().Any() {
				t.Error("forwarding and WAR never set needs-replay")
			}
		})
	}
}

func TestRegionCommitWAWYoungestWins(t *testing.T) {
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	// Element stores from lanes 2 and 9 to the same address; lane 9 is
	// sequentially younger and must win.
	a := reserve(t, l, 0, 5, 2, true, 1)
	l.ExecStore(a, core.KindElem, 0x3000, 4, isa.DirUp, onlyLane(2), onlyLane(2), isa.Vec{2: 222}, 1)
	b := reserve(t, l, 0, 5, 9, true, 2)
	r := l.ExecStore(b, core.KindElem, 0x3000, 4, isa.DirUp, onlyLane(9), onlyLane(9), isa.Vec{9: 999}, 2)
	_ = r
	// The issuing store (lane 9) overlaps an older entry in an EARLIER lane
	// — not a WAW for the issuing store. Re-issue lane 2's store to see the
	// WAW detection (issuing store overlapping a LATER-lane entry).
	r2 := l.ExecStore(a, core.KindElem, 0x3000, 4, isa.DirUp, onlyLane(2), onlyLane(2), isa.Vec{2: 222}, 3)
	if !r2.WAW {
		t.Error("store overlapping a later-lane store must report WAW")
	}
	l.CommitRegion(0)
	if got := im.ReadInt(0x3000, 4); got != 999 {
		t.Errorf("memory = %d, want youngest lane's 999", got)
	}
	if l.Len() != 0 {
		t.Errorf("region entries not freed: %d", l.Len())
	}
}

func TestReplayEntryReuse(t *testing.T) {
	l, _, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	e1 := reserve(t, l, 0, 7, 3, true, 1)
	e2 := reserve(t, l, 0, 7, 3, true, 9) // replay: same (instance, id, lane)
	if e1 != e2 {
		t.Error("replay must reuse the existing entry (same SRV-id)")
	}
	if l.Len() != 1 {
		t.Errorf("entries = %d, want 1", l.Len())
	}
	e3 := reserve(t, l, 1, 7, 3, true, 12) // next region instance: fresh entry
	if e3 == e1 {
		t.Error("a new region instance must allocate a fresh entry")
	}
}

func TestOverflowDetection(t *testing.T) {
	l, _, ctrl := newLSU(4)
	must(t, ctrl.Start(1, isa.DirUp))
	for i := 0; i < 4; i++ {
		reserve(t, l, 0, i, -1, false, int64(i))
	}
	r := l.Reserve(0, 99, -1, true, 10)
	if r.OK || !r.Overflow {
		t.Errorf("same-instance full LSU must report overflow, got %+v", r)
	}
	if l.Stats.Overflows != 1 {
		t.Errorf("overflow count = %d, want 1", l.Stats.Overflows)
	}
	// Mixed instances: full but an older entry can free later — no overflow.
	l2, _, ctrl2 := newLSU(4)
	must(t, ctrl2.Start(1, isa.DirUp))
	reserve(t, l2, NoInstance, 0, -1, true, 0)
	for i := 0; i < 3; i++ {
		reserve(t, l2, 0, i, -1, false, int64(i+1))
	}
	r = l2.Reserve(0, 99, -1, true, 10)
	if r.OK || r.Overflow {
		t.Errorf("mixed-instance full LSU must stall, not overflow: %+v", r)
	}
}

func TestSquashYounger(t *testing.T) {
	l, _, _ := newLSU(64)
	reserve(t, l, NoInstance, 1, -1, false, 1)
	reserve(t, l, NoInstance, 2, -1, true, 5)
	reserve(t, l, NoInstance, 3, -1, false, 9)
	l.SquashYounger(5)
	if l.Len() != 2 {
		t.Errorf("entries after squash = %d, want 2", l.Len())
	}
	for _, e := range l.Entries() {
		if e.DispSeq > 5 {
			t.Errorf("entry with dispSeq %d survived squash", e.DispSeq)
		}
	}
}

func TestWritebackNonSpecInterrupt(t *testing.T) {
	// Interrupt mid-region (paper §III-D2): lanes older than the oldest
	// active lane write back fully; the oldest lane writes back only stores
	// at positions before the interrupt PC; younger lanes are discarded.
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	for lane := 0; lane < 4; lane++ {
		st := reserve(t, l, 0, 5, lane, true, int64(lane))
		l.ExecStore(st, core.KindElem, 0x4000+uint64(lane*8), 4, isa.DirUp,
			onlyLane(lane), onlyLane(lane), vecOf(func(int) int64 { return 100 + int64(lane) }), int64(lane))
		st2 := reserve(t, l, 0, 8, lane, true, int64(lane+100))
		l.ExecStore(st2, core.KindElem, 0x4004+uint64(lane*8), 4, isa.DirUp,
			onlyLane(lane), onlyLane(lane), vecOf(func(int) int64 { return 200 + int64(lane) }), int64(lane+100))
	}
	// Oldest active lane = 2, interrupted between positions 5 and 8.
	l.WritebackNonSpec(0, 2, 6)
	check := func(addr uint64, want int64) {
		t.Helper()
		if got := im.ReadInt(addr, 4); got != want {
			t.Errorf("mem[%#x] = %d, want %d", addr, got, want)
		}
	}
	check(0x4000, 100) // lane 0, pos 5: older lane, written
	check(0x4004, 200) // lane 0, pos 8: older lane, written
	check(0x4008, 101) // lane 1 written
	check(0x400C, 201) // lane 1 written
	check(0x4010, 102) // lane 2 pos 5 < 6: written
	check(0x4014, 0)   // lane 2 pos 8 >= 6: discarded
	check(0x4018, 0)   // lane 3: younger, discarded
	if l.Len() != 0 {
		t.Errorf("entries not freed after interrupt writeback: %d", l.Len())
	}
}

func TestRegionDataInvisibleOutside(t *testing.T) {
	// Speculative region store data must not forward to a non-region load
	// (such a load could only be wrong-path; the srv_end barrier blocks
	// correct-path younger loads).
	l, im, ctrl := newLSU(64)
	must(t, ctrl.Start(1, isa.DirUp))
	im.WriteInt(0x5000, 4, 7)
	st := reserve(t, l, 0, 3, 0, true, 1)
	l.ExecStore(st, core.KindElem, 0x5000, 4, isa.DirUp, onlyLane(0), onlyLane(0), isa.Vec{0: 42}, 1)
	ld := reserve(t, l, NoInstance, 9, -1, false, 50)
	res := l.ExecLoad(ld, core.KindScalar, 0x5000, 4, isa.DirUp, all(), all(), 50)
	if res.Vals[0] != 7 {
		t.Errorf("non-region load read speculative data: %d, want 7", res.Vals[0])
	}
}

func TestDisambiguationCounters(t *testing.T) {
	l, _, ctrl := newLSU(64)
	// Non-region: load vs one store entry = one vertical disambiguation.
	st := reserve(t, l, NoInstance, 1, -1, true, 1)
	l.ExecStore(st, core.KindScalar, 0x6000, 4, isa.DirUp, all(), all(), isa.Vec{0: 1}, 1)
	ld := reserve(t, l, NoInstance, 2, -1, false, 2)
	l.ExecLoad(ld, core.KindScalar, 0x6000, 4, isa.DirUp, all(), all(), 2)
	if l.Stats.VertDisamb != 1 || l.Stats.HorizDisamb != 0 {
		t.Errorf("disamb = v%d/h%d, want 1/0", l.Stats.VertDisamb, l.Stats.HorizDisamb)
	}
	l.CommitStore(st)
	l.Release(ld)
	// Region: load vs one region store = one horizontal disambiguation.
	must(t, ctrl.Start(1, isa.DirUp))
	rst := reserve(t, l, 0, 1, -1, true, 3)
	l.ExecStore(rst, core.KindContig, 0x7000, 4, isa.DirUp, all(), all(), isa.Vec{}, 3)
	rld := reserve(t, l, 0, 2, -1, false, 4)
	l.ExecLoad(rld, core.KindContig, 0x7000, 4, isa.DirUp, all(), all(), 4)
	if l.Stats.HorizDisamb == 0 {
		t.Error("region load must count horizontal disambiguations")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiscardRegion: aborting a region (interrupt after srv_start, squash)
// frees all its entries without touching memory.
func TestDiscardRegion(t *testing.T) {
	l, im, ctrl := newLSU(8)
	im.WriteInt(0x1000, 4, 7)
	if err := ctrl.Start(1, isa.DirUp); err != nil {
		t.Fatal(err)
	}
	st := reserve(t, l, 3, 10, -1, true, 1)
	l.ExecStore(st, core.KindContig, 0x1000, 4, isa.DirUp, all(), all(),
		vecOf(func(i int) int64 { return int64(100 + i) }), 1)
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	l.DiscardRegion(3)
	if l.Len() != 0 {
		t.Errorf("discard must free the instance's entries, len = %d", l.Len())
	}
	if got := im.ReadInt(0x1000, 4); got != 7 {
		t.Errorf("discarded speculative store reached memory: %d", got)
	}
	// Capacity is unaffected by discard.
	if l.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", l.Capacity())
	}
}

// TestDiscardRegionKeepsOtherInstances: only the named instance is freed.
func TestDiscardRegionKeepsOtherInstances(t *testing.T) {
	l, _, ctrl := newLSU(8)
	if err := ctrl.Start(1, isa.DirUp); err != nil {
		t.Fatal(err)
	}
	reserve(t, l, 3, 10, -1, true, 1)
	reserve(t, l, 4, 11, -1, true, 2)
	scalar := reserve(t, l, NoInstance, 12, -1, true, 3)
	_ = scalar
	l.DiscardRegion(3)
	if l.Len() != 2 {
		t.Errorf("len = %d, want 2 (instance 4 and the scalar entry survive)", l.Len())
	}
}

// TestMaxOccupancy tracks the high-water mark across reserve/free cycles.
func TestMaxOccupancy(t *testing.T) {
	l, _, ctrl := newLSU(8)
	if err := ctrl.Start(1, isa.DirUp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		reserve(t, l, 3, i, -1, true, int64(i))
	}
	l.DiscardRegion(3)
	for i := 0; i < 2; i++ {
		reserve(t, l, 4, i, -1, true, int64(10+i))
	}
	if l.Stats.MaxOccupancy != 5 {
		t.Errorf("high-water = %d, want 5 (freeing must not lower it)", l.Stats.MaxOccupancy)
	}
	// Replay rebinding must not inflate occupancy.
	reserve(t, l, 4, 0, -1, true, 20)
	if l.Len() != 2 || l.Stats.MaxOccupancy != 5 {
		t.Errorf("len=%d max=%d, want 2/5 after SRV-id reuse", l.Len(), l.Stats.MaxOccupancy)
	}
}
