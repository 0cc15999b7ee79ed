package core

import (
	"testing"

	"srvsim/internal/bitvec"
	"srvsim/internal/isa"
)

// TestFig5ScatterVsLoad reproduces the paper's Fig 5 worked example:
// listing 2's first iteration with a[] at 0xFF00, 4-byte elements, and
// x = {3,0,1,2,7,...}. The v_load occupies one contiguous LQ entry; the
// scatter issues one element store per lane.
func TestFig5ScatterVsLoad(t *testing.T) {
	load := Access{Kind: KindContig, Addr: 0xFF00, Elem: 4}

	// Step 1: scatter element lane 0 writes a[3] at 0xFF0C; the load's
	// lane 3 read those bytes too early.
	st0 := Access{Kind: KindElem, Lane: 0, Addr: 0xFF0C, Elem: 4}
	if lanes := ViolatingLaneMask(st0, load, AllLanes); lanes != 1<<3 {
		t.Errorf("step 1 violating lanes = %016b, want {3}", lanes)
	}

	// Step 2: scatter element lane 1 writes a[0] at 0xFF00: a conflict with
	// an earlier load lane, but no violation.
	st1 := Access{Kind: KindElem, Lane: 1, Addr: 0xFF00, Elem: 4}
	if lanes := ViolatingLaneMask(st1, load, AllLanes); lanes.Any() {
		t.Errorf("step 2 violating lanes = %016b, want none", lanes)
	}

	// Steps 3-5 equivalents: writes to a[1], a[2] are fine; a[7] from lane 4
	// violates lane 7.
	st4 := Access{Kind: KindElem, Lane: 4, Addr: 0xFF00 + 7*4, Elem: 4}
	if lanes := ViolatingLaneMask(st4, load, AllLanes); lanes != 1<<7 {
		t.Errorf("a[7] write violating lanes = %016b, want {7}", lanes)
	}

	// Full scatter: lanes 0,4,8,12 write a[3],a[7],a[11],a[15]; the combined
	// needs-replay set is {3,7,11,15} — the paper's SRV-needs-replay value.
	var combined bitvec.LaneMask
	for _, c := range []struct{ lane, idx int }{{0, 3}, {4, 7}, {8, 11}, {12, 15}} {
		st := Access{Kind: KindElem, Lane: c.lane, Addr: 0xFF00 + uint64(c.idx*4), Elem: 4}
		combined |= ViolatingLaneMask(st, load, AllLanes)
	}
	if want := bitvec.LaneMask(1<<3 | 1<<7 | 1<<11 | 1<<15); combined != want {
		t.Errorf("combined needs-replay = %016b, want lanes {3,7,11,15}", combined)
	}
}

func TestBroadcastTreatedAsAllLanes(t *testing.T) {
	// Paper §IV-C4: a broadcast is an access to the same address by every
	// lane. A store element in lane 5 overlapping a broadcast load entry
	// violates lanes 6..15 (they should have seen the new data).
	st := Access{Kind: KindElem, Lane: 5, Addr: 0x2000, Elem: 4}
	bc := Access{Kind: KindBcast, Addr: 0x2000, Elem: 4}
	if lanes := ViolatingLaneMask(st, bc, AllLanes); lanes != bitvec.LaneRange(6, isa.NumLanes-1) {
		t.Errorf("broadcast violating lanes = %016b, want 6..15", lanes)
	}
}

func TestDownDirectionReversesLanes(t *testing.T) {
	// A decreasing induction variable: lane number increases as the address
	// decreases, so a contiguous access under DOWN attributes its LOWEST
	// byte to the HIGHEST lane (paper §III-A).
	a := Access{Kind: KindContig, Addr: 0x3000, Elem: 4, Dir: isa.DirDown}
	lo, hi := a.LaneBounds(0x3000)
	if lo != isa.NumLanes-1 || hi != isa.NumLanes-1 {
		t.Errorf("DOWN first byte lane = %d..%d, want 15..15", lo, hi)
	}
	lo, _ = a.LaneBounds(0x3000 + 15*4)
	if lo != 0 {
		t.Errorf("DOWN last element lane = %d, want 0", lo)
	}
}

func TestAccessGeometry(t *testing.T) {
	c := Access{Kind: KindContig, Addr: 0x100, Elem: 4}
	if c.Bytes() != 64 {
		t.Errorf("contig bytes = %d, want 64", c.Bytes())
	}
	e := Access{Kind: KindElem, Lane: 3, Addr: 0x100, Elem: 8}
	if e.Bytes() != 8 {
		t.Errorf("elem bytes = %d, want 8", e.Bytes())
	}
	if !c.Overlaps(e) || !e.Overlaps(c) {
		t.Error("overlap must be symmetric")
	}
	far := Access{Kind: KindElem, Lane: 0, Addr: 0x200, Elem: 4}
	if c.Overlaps(far) {
		t.Error("disjoint accesses must not overlap")
	}
	if !c.Contains(0x13F) || c.Contains(0x140) {
		t.Error("Contains boundary wrong")
	}
}

func TestSeqBefore(t *testing.T) {
	if !SeqBefore(1, 9, 2, 3) {
		t.Error("earlier lane must precede regardless of position")
	}
	if !SeqBefore(2, 3, 2, 5) {
		t.Error("same lane orders by position")
	}
	if SeqBefore(2, 5, 2, 5) {
		t.Error("equal positions are not before")
	}
}

func TestForwardable(t *testing.T) {
	if !Forwardable(2, 5, 3, 1) {
		t.Error("store lane 2 forwards to load lane 3")
	}
	if Forwardable(7, 5, 3, 9) {
		t.Error("store lane 7 must not forward to load lane 3 (WAR)")
	}
	if !Forwardable(3, 5, 3, 9) {
		t.Error("same lane, earlier position forwards")
	}
	if Forwardable(3, 9, 3, 5) {
		t.Error("same lane, later position must not forward")
	}
}
