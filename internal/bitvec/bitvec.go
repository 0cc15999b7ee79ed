// Package bitvec implements the word-parallel bit vectors the SRV
// load-store unit disambiguates with (paper §IV-A): Mask128 holds the
// valid bytes of one LSU entry's footprint, LaneMask a set of vector lanes,
// and Mask with Set the bytes a region commit has already written, one
// address-alignment region per word.
//
// An address-alignment region is the naturally aligned span of memory whose
// size equals the vector register width in bytes (64 bytes for the 16-lane,
// element-agnostic configuration evaluated in the paper). Every byte of a
// region maps to one bit of a Mask.
package bitvec

import "math/bits"

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

// Count returns the number of set bits.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// RegionMask pairs an alignment base with a byte mask for that region.
type RegionMask struct {
	Base uint64
	Mask Mask
}

// Set is a collection of region masks keyed by alignment base: the bytes
// marked so far across every region they touch.
type Set struct {
	regions map[uint64]Mask
}

// NewSet returns an empty region-mask set.
func NewSet() *Set { return &Set{regions: make(map[uint64]Mask)} }

// Reset empties the set in place.
func (s *Set) Reset() {
	for b := range s.regions {
		delete(s.regions, b)
	}
}

// Add marks the bytes of a single region mask.
func (s *Set) Add(rm RegionMask) {
	if rm.Mask != 0 {
		s.regions[rm.Base] |= rm.Mask
	}
}

// Get returns the mask for the region with the given base.
func (s *Set) Get(base uint64) Mask { return s.regions[base] }
