package core

import (
	"testing"
	"testing/quick"

	"srvsim/internal/bitvec"
	"srvsim/internal/isa"
)

// randAccess maps fuzz bytes onto a plausible access descriptor.
func randAccess(kindSel, lane uint8, off uint16, elemSel uint8) Access {
	elems := []int{1, 2, 4, 8}
	a := Access{
		Elem: elems[int(elemSel)%len(elems)],
		Addr: 0x4000 + uint64(off%2048),
		Lane: int(lane) % isa.NumLanes,
	}
	switch kindSel % 3 {
	case 0:
		a.Kind = KindContig
		a.Addr &^= uint64(a.Elem - 1) // element-aligned
	case 1:
		a.Kind = KindElem
	default:
		a.Kind = KindBcast
	}
	return a
}

// TestQuickViolatingLanesAreLater: every lane reported for replay is
// strictly later than the issuing access's lane at some overlapping byte —
// the guarantee behind the replay-frontier progress bound (paper §III-A:
// roll back happens at most N-1 times).
func TestQuickViolatingLanesAreLater(t *testing.T) {
	f := func(k1, l1 uint8, o1 uint16, e1, k2, l2 uint8, o2 uint16, e2 uint8) bool {
		issuing := randAccess(k1, l1, o1, e1)
		entry := randAccess(k2, l2, o2, e2)
		lanes := ViolatingLaneMask(issuing, entry, AllLanes)
		if !lanes.Any() {
			return true
		}
		if !issuing.Overlaps(entry) {
			return false // lanes without overlap are impossible
		}
		// The minimum issuing lane over the overlap bounds every reported
		// lane from below.
		minIssuing := isa.NumLanes
		end := issuing.Addr + uint64(issuing.Bytes())
		for addr := issuing.Addr; addr < end; addr++ {
			if !entry.Contains(addr) {
				continue
			}
			lo, _ := issuing.LaneBounds(addr)
			if lo < minIssuing {
				minIssuing = lo
			}
		}
		return lanes&bitvec.LaneRange(0, minIssuing) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSeqBeforeStrictOrder: SeqBefore is a strict total order over
// (lane, pos) pairs.
func TestQuickSeqBeforeStrictOrder(t *testing.T) {
	f := func(l1, p1, l2, p2, l3, p3 uint8) bool {
		a := [2]int{int(l1) % 16, int(p1)}
		b := [2]int{int(l2) % 16, int(p2)}
		c := [2]int{int(l3) % 16, int(p3)}
		lt := func(x, y [2]int) bool { return SeqBefore(x[0], x[1], y[0], y[1]) }
		// Irreflexive.
		if lt(a, a) {
			return false
		}
		// Antisymmetric.
		if lt(a, b) && lt(b, a) {
			return false
		}
		// Transitive.
		if lt(a, b) && lt(b, c) && !lt(a, c) {
			return false
		}
		// Total: distinct pairs compare one way or the other.
		if a != b && !lt(a, b) && !lt(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickReplayFrontierAdvances drives the controller with random RAW
// lane sets that respect the hardware guarantee (flagged lanes are strictly
// later than the oldest active lane) and checks that every region
// terminates within NumLanes-1 replays.
func TestQuickReplayFrontierAdvances(t *testing.T) {
	f := func(rounds [8]uint16) bool {
		var c Controller
		if err := c.Start(1, isa.DirUp); err != nil {
			return false
		}
		replays := 0
		for _, bits := range rounds {
			oldest := c.Replay().Oldest()
			var lanes isa.Pred
			any := false
			for l := oldest + 1; l < isa.NumLanes; l++ {
				if bits&(1<<uint(l)) != 0 {
					lanes[l] = true
					any = true
				}
			}
			if any {
				c.RecordRAW(lanes)
			}
			switch c.End() {
			case EndCommit:
				return replays <= isa.NumLanes-1
			case EndReplay:
				replays++
				if replays > isa.NumLanes-1 {
					return false
				}
			}
		}
		// Exhaust pending replays.
		for c.InRegion() {
			if c.End() == EndReplay {
				replays++
				if replays > isa.NumLanes-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickForwardableAntisymmetry: a store byte may forward to a load or
// the load's lane may be earlier, never both ways for distinct positions.
func TestQuickForwardable(t *testing.T) {
	f := func(sl, sp, ll, lp uint8) bool {
		sLane, sPos := int(sl)%16, int(sp)
		lLane, lPos := int(ll)%16, int(lp)
		if sLane == lLane && sPos == lPos {
			return true
		}
		fwd := Forwardable(sLane, sPos, lLane, lPos)
		rev := Forwardable(lLane, lPos, sLane, sPos)
		return fwd != rev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaskedViolationsSubset: restricting the issuing lanes can only
// remove flags, never add them. The replay frontier's strict advance relies
// on this (§III-A).
func TestQuickMaskedViolationsSubset(t *testing.T) {
	f := func(k1, l1 uint8, o1 uint16, e1, k2, l2 uint8, o2 uint16, e2 uint8, maskBits uint16) bool {
		issuing := randAccess(k1, l1, o1, e1)
		entry := randAccess(k2, l2, o2, e2)
		full := ViolatingLaneMask(issuing, entry, AllLanes)
		masked := ViolatingLaneMask(issuing, entry, bitvec.LaneMask(maskBits))
		return masked&^full == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickViolatingLanesStrictlyLater: flagged lanes are strictly later
// than some lane of the issuing access at an overlapped byte — lane 0 can
// never be flagged, and scalar/broadcast issuers flag only lanes > 0.
func TestQuickViolatingLanesStrictlyLater(t *testing.T) {
	f := func(k1, l1 uint8, o1 uint16, e1, k2, l2 uint8, o2 uint16, e2 uint8) bool {
		issuing := randAccess(k1, l1, o1, e1)
		entry := randAccess(k2, l2, o2, e2)
		return !ViolatingLaneMask(issuing, entry, AllLanes).Test(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// randAccessFull extends randAccess with scalar kinds and DOWN-direction
// contiguous accesses, so the word-parallel kernel is exercised over the
// full taxonomy.
func randAccessFull(kindSel, lane uint8, off uint16, elemSel, dirSel uint8) Access {
	a := randAccess(kindSel, lane, off, elemSel)
	if kindSel%4 == 3 {
		a.Kind = KindScalar
	}
	if a.Kind == KindContig && dirSel%2 == 1 {
		a.Dir = isa.DirDown
	}
	return a
}

// TestQuickViolatingLaneMaskMatchesReference: the word-parallel kernel is
// bit-identical to the retained per-byte reference across every kind pair,
// both directions and arbitrary issuing-lane masks.
func TestQuickViolatingLaneMaskMatchesReference(t *testing.T) {
	f := func(k1, l1 uint8, o1 uint16, e1, d1, k2, l2 uint8, o2 uint16, e2, d2 uint8, maskBits uint16) bool {
		issuing := randAccessFull(k1, l1, o1, e1, d1)
		entry := randAccessFull(k2, l2, o2, e2, d2)
		var lanes isa.Pred
		for i := 0; i < isa.NumLanes; i++ {
			lanes[i] = maskBits&(1<<i) != 0
		}
		if MaskPred(ViolatingLaneMask(issuing, entry, PredMask(lanes))) != violatingLanesRef(issuing, entry, lanes) {
			return false
		}
		return MaskPred(ViolatingLaneMask(issuing, entry, AllLanes)) == violatingLanesRef(issuing, entry, isa.AllTrue())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestPredMaskRoundTrip: lane-mask and predicate forms convert losslessly.
func TestPredMaskRoundTrip(t *testing.T) {
	f := func(maskBits uint16) bool {
		m := bitvec.LaneMask(maskBits)
		return PredMask(MaskPred(m)) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkViolatingLaneMask measures the disambiguation kernel on the
// contig-store-vs-contig-load shape that dominates region issue; it must
// stay allocation-free.
func BenchmarkViolatingLaneMask(b *testing.B) {
	b.ReportAllocs()
	st := Access{Kind: KindContig, Addr: 0x4000, Elem: 4}
	ld := Access{Kind: KindContig, Addr: 0x4008, Elem: 4}
	var acc bitvec.LaneMask
	for i := 0; i < b.N; i++ {
		acc |= ViolatingLaneMask(st, ld, AllLanes)
	}
	_ = acc
}

// BenchmarkViolatingLaneMaskElem is the gather/scatter shape: an elem
// store probed against an elem load entry.
func BenchmarkViolatingLaneMaskElem(b *testing.B) {
	b.ReportAllocs()
	st := Access{Kind: KindElem, Lane: 3, Addr: 0x4010, Elem: 4}
	ld := Access{Kind: KindElem, Lane: 9, Addr: 0x4010, Elem: 4}
	var acc bitvec.LaneMask
	for i := 0; i < b.N; i++ {
		acc |= ViolatingLaneMask(st, ld, AllLanes)
	}
	_ = acc
}
