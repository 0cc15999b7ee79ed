// Package bitvec implements the byte-granular bit vectors over
// address-alignment regions that the SRV load-store unit uses for memory
// disambiguation (paper §IV-A).
//
// An address-alignment region is the naturally aligned span of memory whose
// size equals the vector register width in bytes (64 bytes for the 16-lane,
// element-agnostic configuration evaluated in the paper). Every byte of a
// region maps to one bit of a Mask. The LSU computes, per queue entry, a
// bytes-accessed bit vector, and on each issue derives the vertically
// overlapped bytes (VOB), horizontal-violation and horizontally overlapped
// bytes (HOB) vectors from pairs of these masks.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// RegionSize is the size in bytes of one address-alignment region. It equals
// the vector width in bytes: 16 lanes x 4-byte nominal elements.
const RegionSize = 64

// Mask is a bit vector over one address-alignment region, one bit per byte.
// Bit i corresponds to the byte at offset i from the region's alignment base.
type Mask uint64

// Base returns the address-alignment base of addr: the start address of the
// region containing it.
func Base(addr uint64) uint64 { return addr &^ (RegionSize - 1) }

// Offset returns the offset of addr within its alignment region.
func Offset(addr uint64) int { return int(addr & (RegionSize - 1)) }

// Range returns a mask with bits [off, off+n) set. It panics if the span
// leaves the region; callers split accesses across regions first.
func Range(off, n int) Mask {
	if off < 0 || n < 0 || off+n > RegionSize {
		panic(fmt.Sprintf("bitvec: range [%d,%d) outside region", off, off+n))
	}
	if n == 0 {
		return 0
	}
	if n == RegionSize {
		return ^Mask(0) >> uint(off) << uint(off) // off must be 0 here
	}
	return ((Mask(1) << uint(n)) - 1) << uint(off)
}

// From returns a mask with all bits from off (inclusive) to the end of the
// region set. The paper's horizontal-violation vectors for contiguous
// accesses are built this way ("set from bit 24 onwards", Fig 4).
func From(off int) Mask {
	if off < 0 || off > RegionSize {
		panic(fmt.Sprintf("bitvec: from-offset %d outside region", off))
	}
	if off == RegionSize {
		return 0
	}
	return ^Mask(0) << uint(off)
}

// Upto returns a mask with all bits below off set.
func Upto(off int) Mask { return ^From(off) }

// Count returns the number of set bits.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Test reports whether the bit for byte offset off is set.
func (m Mask) Test(off int) bool { return m&(Mask(1)<<uint(off)) != 0 }

// Set returns m with the bit for byte offset off set.
func (m Mask) Set(off int) Mask { return m | Mask(1)<<uint(off) }

// Clear returns m with the bit for byte offset off cleared.
func (m Mask) Clear(off int) Mask { return m &^ (Mask(1) << uint(off)) }

// Lowest returns the offset of the lowest set bit, or RegionSize if empty.
func (m Mask) Lowest() int { return bits.TrailingZeros64(uint64(m)) }

// String renders the mask LSB-first as a 64-character 0/1 string, matching
// the byte-offset ordering used in the paper's figures.
func (m Mask) String() string {
	var b strings.Builder
	for i := 0; i < RegionSize; i++ {
		if m.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Span describes a contiguous byte span [Addr, Addr+N) of memory.
type Span struct {
	Addr uint64
	N    int
}

// RegionMask pairs an alignment base with the bytes-accessed mask for that
// region. Accesses spanning multiple regions produce one RegionMask each.
type RegionMask struct {
	Base uint64
	Mask Mask
}

// SplitSpan decomposes a byte span into per-region bytes-accessed masks, in
// ascending region order. A 64-byte contiguous vector access at a non-zero
// offset spans two consecutive regions (paper §IV-A, "the address space
// 0x0C-0x4C spans two consecutive alignment regions").
func SplitSpan(s Span) []RegionMask {
	if s.N <= 0 {
		return nil
	}
	var out []RegionMask
	addr := s.Addr
	remaining := s.N
	for remaining > 0 {
		base := Base(addr)
		off := Offset(addr)
		n := RegionSize - off
		if n > remaining {
			n = remaining
		}
		out = append(out, RegionMask{Base: base, Mask: Range(off, n)})
		addr += uint64(n)
		remaining -= n
	}
	return out
}

// Set is a collection of region masks keyed by alignment base. It accumulates
// the bytes accessed by one LSU entry (which may touch several regions) and
// supports the AND/OR operations the disambiguation logic performs.
type Set struct {
	regions map[uint64]Mask
}

// NewSet returns an empty region-mask set.
func NewSet() *Set { return &Set{regions: make(map[uint64]Mask)} }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for b, m := range s.regions {
		c.regions[b] = m
	}
	return c
}

// Reset empties the set in place.
func (s *Set) Reset() {
	for b := range s.regions {
		delete(s.regions, b)
	}
}

// AddSpan marks the bytes of span as accessed.
func (s *Set) AddSpan(sp Span) {
	for _, rm := range SplitSpan(sp) {
		s.regions[rm.Base] |= rm.Mask
	}
}

// Add marks the bytes of a single region mask as accessed.
func (s *Set) Add(rm RegionMask) {
	if rm.Mask != 0 {
		s.regions[rm.Base] |= rm.Mask
	}
}

// Get returns the mask for the region with the given base.
func (s *Set) Get(base uint64) Mask { return s.regions[base] }

// Empty reports whether no bytes are marked.
func (s *Set) Empty() bool {
	for _, m := range s.regions {
		if m != 0 {
			return false
		}
	}
	return true
}

// Bytes returns the total number of marked bytes.
func (s *Set) Bytes() int {
	n := 0
	for _, m := range s.regions {
		n += m.Count()
	}
	return n
}

// Overlap computes the per-region AND of two sets: the vertically overlapped
// bytes (VOB) between an issuing access and a queue entry. Regions with a
// zero result are omitted.
func Overlap(a, b *Set) []RegionMask {
	var out []RegionMask
	for base, ma := range a.regions {
		if mb := b.regions[base]; ma&mb != 0 {
			out = append(out, RegionMask{Base: base, Mask: ma & mb})
		}
	}
	return out
}

// Overlaps reports whether any byte is marked in both sets.
func Overlaps(a, b *Set) bool {
	for base, ma := range a.regions {
		if ma&b.regions[base] != 0 {
			return true
		}
	}
	return false
}

// EachByte calls fn with the absolute address of every marked byte.
func (s *Set) EachByte(fn func(addr uint64)) {
	for base, m := range s.regions {
		for off := 0; off < RegionSize; off++ {
			if m.Test(off) {
				fn(base + uint64(off))
			}
		}
	}
}

// Contains reports whether the byte at addr is marked.
func (s *Set) Contains(addr uint64) bool {
	return s.regions[Base(addr)].Test(Offset(addr))
}
