package core

import (
	"testing"

	"srvsim/internal/bitvec"
	"srvsim/internal/isa"
)

// TestViolatingLanesMaskedRestriction: during a replay round only the
// re-executed lanes of a store may raise new flags. A contiguous store
// re-executing lanes {8..15} against a full contiguous load must flag only
// lanes later than re-executed store bytes — the unchanged lanes {0..7}
// must raise nothing, or the replay frontier would stall (§III-A's N-1
// bound).
func TestViolatingLanesMaskedRestriction(t *testing.T) {
	const base = 0x1000
	store := Access{Kind: KindContig, Addr: base, Elem: 4}
	load := Access{Kind: KindContig, Addr: base, Elem: 4}

	// Unmasked: every load byte in a lane later than its store lane — for
	// identical contiguous footprints lane(byte) is equal on both sides, so
	// nothing is strictly later.
	if got := ViolatingLaneMask(store, load, AllLanes); got.Any() {
		t.Fatalf("identical contiguous accesses: no strictly-later lanes, got %v", got)
	}

	// Shift the load one element up: load lane i reads store lane i+1's
	// bytes -> entry (load) lanes are strictly later for every overlapped
	// byte of store lanes 1..15.
	loadUp := Access{Kind: KindContig, Addr: base - 4, Elem: 4}
	full := ViolatingLaneMask(store, loadUp, AllLanes)
	if !full.Any() {
		t.Fatal("shifted overlap must violate")
	}

	// Restrict the store's updated lanes to {8..15}: flags from bytes of
	// lanes 0..7 must vanish.
	masked := ViolatingLaneMask(store, loadUp, bitvec.LaneRange(8, isa.NumLanes-1))
	// Store lane 8's byte flags load lanes > 8 only.
	if low := masked & bitvec.LaneRange(0, 8); low != 0 {
		t.Errorf("lanes %016b flagged by non-re-executed store bytes", low)
	}
	if !masked.Any() {
		t.Error("re-executed lanes must still flag later load lanes")
	}
	// Masked must be a subset of the unmasked result.
	if extra := masked &^ full; extra != 0 {
		t.Errorf("masked flags %016b not present unmasked", extra)
	}
}

// TestViolatingLanesMaskedFrontierAdvance reproduces the frontier-stall bug
// shape: a store re-executing only lane k must never flag lane k itself or
// anything at or before it.
func TestViolatingLanesMaskedFrontierAdvance(t *testing.T) {
	const base = 0x2000
	for k := 0; k < isa.NumLanes; k++ {
		store := Access{Kind: KindContig, Addr: base, Elem: 4}
		load := Access{Kind: KindContig, Addr: base, Elem: 4}
		got := ViolatingLaneMask(store, load, bitvec.LaneRange(k, k))
		if stall := got & bitvec.LaneRange(0, k); stall != 0 {
			t.Fatalf("store lane %d flagged lanes %016b: frontier would stall", k, stall)
		}
	}
}

// TestStoreVsStoreWAW checks the horizontal WAW rule ExecStore runs: an
// issuing scatter element against an older contiguous store covering all
// lanes violates only where the older store's lane at the shared bytes is
// strictly later than the element's lane.
func TestStoreVsStoreWAW(t *testing.T) {
	const base = 0x3000 // 64-aligned
	older := Access{Kind: KindContig, Addr: base, Elem: 4}
	// The element in lane 2 writes lane 2's bytes: a same-lane overlap is
	// vertical, not a horizontal WAW.
	same := Access{Kind: KindElem, Lane: 2, Addr: base + 2*4, Elem: 4}
	if lanes := ViolatingLaneMask(same, older, AllLanes); lanes.Any() {
		t.Errorf("same-lane overlap flagged lanes %016b, want none", lanes)
	}
	// The element in lane 1 writes lane 3's bytes: a horizontal WAW on
	// lane 3.
	cross := Access{Kind: KindElem, Lane: 1, Addr: base + 3*4, Elem: 4}
	if lanes := ViolatingLaneMask(cross, older, AllLanes); lanes != 1<<3 {
		t.Errorf("cross-lane WAW flagged lanes %016b, want {3}", lanes)
	}
}

// TestControllerAbortAndAccessors covers Abort, Dir, FallbackLane and the
// violation counters.
func TestControllerAbortAndAccessors(t *testing.T) {
	var c Controller
	if err := c.Start(12, isa.DirDown); err != nil {
		t.Fatal(err)
	}
	if c.Dir() != isa.DirDown {
		t.Error("direction must be recorded")
	}
	c.RecordWAR()
	c.RecordWAW()
	if c.Stats.WARViol != 1 || c.Stats.WAWViol != 1 {
		t.Error("WAR/WAW counters must increment")
	}
	c.Abort()
	if c.InRegion() || c.StartPC() != 0 || c.Replay().Any() {
		t.Error("abort must fully reset the controller")
	}
	if c.Stats.Regions != 0 {
		t.Error("an aborted region must not count as completed")
	}

	// Fallback lane accessor.
	if err := c.Start(12, isa.DirUp); err != nil {
		t.Fatal(err)
	}
	c.EnterFallback()
	if c.FallbackLane() != 0 {
		t.Errorf("fallback starts at lane 0, got %d", c.FallbackLane())
	}
	c.End()
	if c.FallbackLane() != 1 {
		t.Errorf("fallback must advance to lane 1, got %d", c.FallbackLane())
	}
}

// TestStringers pins the diagnostic formatting used in trace output.
func TestStringers(t *testing.T) {
	if KindContig.String() != "contig" || KindElem.String() != "elem" ||
		KindBcast.String() != "bcast" || KindScalar.String() != "scalar" {
		t.Error("Kind strings changed")
	}
	if ModeOff.String() != "off" || ModeSpeculative.String() != "speculative" ||
		ModeFallback.String() != "fallback" {
		t.Error("Mode strings changed")
	}
}
