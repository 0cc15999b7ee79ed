// Package core implements the architectural heart of selective-replay
// vectorisation (SRV): the taxonomy of vector memory accesses, the
// horizontal disambiguation rules between SIMD lanes of different vector
// instructions (paper §IV) as the two word-parallel rules the load-store
// unit runs — ViolatingLaneMask for RAW and WAW, Forwardable for
// forwarding and WAR — and the SRV region controller that owns the
// SRV-replay and SRV-needs-replay predicate registers and drives selective
// replay and the LSU-overflow sequential fallback (paper §III).
package core

import (
	"srvsim/internal/bitvec"
	"srvsim/internal/isa"
)

// Kind classifies one load-store-queue entry's access pattern.
type Kind int

const (
	// KindContig is a contiguous vector access: lane i touches bytes
	// [Addr + i*Elem, Addr + (i+1)*Elem). One LSU entry covers all lanes.
	KindContig Kind = iota
	// KindElem is a single element of a gather or scatter: one lane, Elem
	// bytes at Addr. Gathers and scatters occupy one entry per lane
	// (paper §III-B).
	KindElem
	// KindBcast is a broadcast: every lane reads the same Elem bytes at
	// Addr ("treat the broadcast as an access to the same memory address by
	// each lane", paper §IV-C4).
	KindBcast
	// KindScalar is a scalar access outside any lane structure. It
	// participates in vertical disambiguation only.
	KindScalar
)

func (k Kind) String() string {
	switch k {
	case KindContig:
		return "contig"
	case KindElem:
		return "elem"
	case KindBcast:
		return "bcast"
	default:
		return "scalar"
	}
}

// Access describes the memory footprint of one LSU entry.
type Access struct {
	Kind Kind
	Lane int           // lane for KindElem; ignored otherwise
	Addr uint64        // start address
	Elem int           // element size in bytes
	Dir  isa.Direction // lane/address direction for KindContig (srv_start attr)
}

// Bytes returns the total footprint size in bytes.
func (a Access) Bytes() int {
	if a.Kind == KindContig {
		return a.Elem * isa.NumLanes
	}
	return a.Elem
}

// LaneBounds returns the inclusive range of lanes that touch the byte at
// addr. Contiguous accesses attribute each byte to exactly one lane
// (reversed under a DOWN region direction); broadcasts attribute every byte
// to all lanes; scalars to the pseudo-lane range [0, NumLanes-1] so that
// scalar accesses order purely by program position.
func (a Access) LaneBounds(addr uint64) (lo, hi int) {
	switch a.Kind {
	case KindContig:
		idx := int(addr-a.Addr) / a.Elem
		if a.Dir == isa.DirDown {
			idx = isa.NumLanes - 1 - idx
		}
		return idx, idx
	case KindElem:
		return a.Lane, a.Lane
	default: // KindBcast, KindScalar
		return 0, isa.NumLanes - 1
	}
}

// Overlaps reports whether two accesses touch any common byte.
func (a Access) Overlaps(b Access) bool {
	return a.Addr < b.Addr+uint64(b.Bytes()) && b.Addr < a.Addr+uint64(a.Bytes())
}

// Contains reports whether the access touches the byte at addr.
func (a Access) Contains(addr uint64) bool {
	return addr >= a.Addr && addr < a.Addr+uint64(a.Bytes())
}

// SeqBefore reports whether position (laneA, posA) precedes (laneB, posB) in
// the sequential (scalar-program) order an SRV region must preserve:
// iteration-major — lane first, program position second (paper §IV-A's
// horizontal vs vertical dependences).
func SeqBefore(laneA, posA, laneB, posB int) bool {
	if laneA != laneB {
		return laneA < laneB
	}
	return posA < posB
}

// AllLanes is the lane mask with every architectural lane set.
const AllLanes = bitvec.LaneMask(1)<<isa.NumLanes - 1

// PredMask converts a predicate register value to its lane-mask form.
func PredMask(p isa.Pred) bitvec.LaneMask {
	var m bitvec.LaneMask
	for l := 0; l < isa.NumLanes; l++ {
		if p[l] {
			m |= 1 << uint(l)
		}
	}
	return m
}

// MaskPred converts a lane mask back to predicate-register form.
func MaskPred(m bitvec.LaneMask) isa.Pred {
	var p isa.Pred
	for l := 0; l < isa.NumLanes; l++ {
		p[l] = m.Test(l)
	}
	return p
}

// ViolatingLaneMask returns the entry lanes strictly LATER than the
// issuing access's lane at a shared byte: the lanes to record for replay
// (issuing store vs load entries, horizontal RAW) or for selective
// write-back ordering (store vs store, horizontal WAW). Same-lane conflicts
// are vertical and are not reported. Only issuing bytes whose lane is in
// issuingLanes count: during a replay round only the re-executed lanes of a
// store may raise new RAW flags, since bytes of unchanged lanes were
// already visible to every re-executed load through forwarding, and
// re-flagging them would stall the replay frontier (the N-1 bound of paper
// §III-A). Whole lane ranges compare as single AND/OR operations on
// bitvec.LaneMask words instead of per-byte loops.
//
// The per-byte rule being vectorised: for every byte the two accesses
// share, with issuing lane iL and entry lanes [eLo, eHi], the entry lanes
// max(eLo, iL+1)..eHi are violating, provided issuingLanes admits iL.
// Because each term is a suffix of [eLo, eHi], the union over a byte range
// with constant entry-lane bounds is determined by the MINIMUM admitted
// issuing lane — a Lowest() on the masked lane set.
func ViolatingLaneMask(issuing, entry Access, issuingLanes bitvec.LaneMask) bitvec.LaneMask {
	iEnd := issuing.Addr + uint64(issuing.Bytes())
	eEnd := entry.Addr + uint64(entry.Bytes())
	lo, hi := issuing.Addr, iEnd // shared byte range [lo, hi)
	if entry.Addr > lo {
		lo = entry.Addr
	}
	if eEnd < hi {
		hi = eEnd
	}
	if lo >= hi {
		return 0
	}
	var out bitvec.LaneMask
	switch entry.Kind {
	case KindElem:
		is := issuingLaneSet(issuing, lo, hi-1) & issuingLanes
		if is != 0 && entry.Lane > is.Lowest() {
			out |= 1 << uint(entry.Lane)
		}
	case KindBcast, KindScalar:
		is := issuingLaneSet(issuing, lo, hi-1) & issuingLanes
		if is != 0 {
			out |= bitvec.LaneRange(is.Lowest()+1, isa.NumLanes-1)
		}
	case KindContig:
		// One unit per entry element slot the shared range touches; each
		// slot has a single entry lane (reversed under DirDown).
		elem := uint64(entry.Elem)
		first := int((lo - entry.Addr) / elem)
		last := int((hi - 1 - entry.Addr) / elem)
		for idx := first; idx <= last; idx++ {
			sLo := entry.Addr + uint64(idx)*elem
			sHi := sLo + elem - 1
			if sLo < lo {
				sLo = lo
			}
			if sHi > hi-1 {
				sHi = hi - 1
			}
			lane := idx
			if entry.Dir == isa.DirDown {
				lane = isa.NumLanes - 1 - idx
			}
			is := issuingLaneSet(issuing, sLo, sHi) & issuingLanes
			if is != 0 && lane > is.Lowest() {
				out |= 1 << uint(lane)
			}
		}
	}
	return out
}

// issuingLaneSet returns the lanes the issuing access attributes to its
// bytes in [lo, hi] (inclusive; the range must lie inside the footprint).
// Broadcast and scalar accesses attribute every byte to their low bound,
// lane 0, matching LaneBounds.
func issuingLaneSet(a Access, lo, hi uint64) bitvec.LaneMask {
	switch a.Kind {
	case KindContig:
		elem := uint64(a.Elem)
		iLo := int((lo - a.Addr) / elem)
		iHi := int((hi - a.Addr) / elem)
		if a.Dir == isa.DirDown {
			iLo, iHi = isa.NumLanes-1-iHi, isa.NumLanes-1-iLo
		}
		return bitvec.LaneRange(iLo, iHi)
	case KindElem:
		return 1 << uint(a.Lane)
	default: // KindBcast, KindScalar
		return 1
	}
}

// violatingLanesRef is the per-byte reference implementation of
// ViolatingLaneMask; the property suite holds the word-parallel kernel
// bit-identical to it.
func violatingLanesRef(issuing Access, entry Access, issuingLanes isa.Pred) isa.Pred {
	var lanes isa.Pred
	end := issuing.Addr + uint64(issuing.Bytes())
	for addr := issuing.Addr; addr < end; addr++ {
		if !entry.Contains(addr) {
			continue
		}
		iLo, _ := issuing.LaneBounds(addr)
		if iLo < isa.NumLanes && !issuingLanes[iLo] {
			continue
		}
		eLo, eHi := entry.LaneBounds(addr)
		if eLo <= iLo {
			eLo = iLo + 1
		}
		for l := eLo; l <= eHi; l++ {
			lanes[l] = true
		}
	}
	return lanes
}

// Forwardable reports whether a store byte attributed to lanes
// [storeLaneLo, storeLaneHi] at program position storePos may forward to a
// load lane at position loadPos: every lane of the store byte must be
// sequentially before the load's (otherwise forwarding would cross a WAR,
// paper §III-B1). Broadcast loads resolve per lane, so the querying lane is
// passed explicitly.
func Forwardable(storeLaneHi, storePos, loadLane, loadPos int) bool {
	return SeqBefore(storeLaneHi, storePos, loadLane, loadPos)
}
