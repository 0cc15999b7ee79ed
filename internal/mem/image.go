// Package mem provides the memory substrate for the simulator: a flat
// byte-addressable memory image with a bump allocator for laying out
// workload arrays, and a two-level set-associative cache timing model with
// the hit latencies of the paper's Table I (L1 32KiB 4-way 2-cycle,
// L2 1MiB 16-way 7-cycle).
package mem

import "fmt"

const pageBits = 12
const pageSize = 1 << pageBits

// Image is a sparse, byte-addressable memory image. Pages are allocated on
// first touch and zero-filled, so reads of untouched memory return zero.
type Image struct {
	pages map[uint64]*[pageSize]byte
	// dense mirrors pages for page numbers allocBase>>pageBits onward, up to
	// the bump cursor IndexPages saw: a slice index instead of a map lookup
	// on the simulator's hot path. Pages outside it (wild addresses, or
	// arrays allocated after IndexPages) are found through the map alone.
	dense []*[pageSize]byte
	// last and lastPN cache the most recent lookup: seeding a workload and
	// evaluating a loop walk arrays in order.
	last   *[pageSize]byte
	lastPN uint64
	next   uint64 // bump allocation cursor
}

// allocBase is the first address Alloc hands out.
const allocBase = 0x1000

// NewImage returns an empty image. Allocation starts at a non-zero base so
// that address 0 stays invalid.
func NewImage() *Image {
	return &Image{pages: make(map[uint64]*[pageSize]byte), next: allocBase}
}

// IndexPages sizes the dense page index to cover every page allocated so
// far. Call it once the image is laid out: the simulator does, when a
// pipeline is built over the image. Later calls resize it only if Alloc has
// moved the cursor past its end.
func (im *Image) IndexPages() {
	n := int((im.next+pageSize-1)>>pageBits - allocBase>>pageBits)
	if n <= len(im.dense) {
		return
	}
	im.dense = make([]*[pageSize]byte, n)
	for pn, p := range im.pages {
		if i := pn - allocBase>>pageBits; i < uint64(n) {
			im.dense[i] = p
		}
	}
}

// Alloc reserves n bytes aligned to align (which must be a power of two) and
// returns the base address. A guard gap is left between allocations so that
// out-of-bounds accesses land in distinct regions during debugging.
func (im *Image) Alloc(n int, align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (im.next + align - 1) &^ (align - 1)
	im.next = base + uint64(n) + 64 // guard gap
	return base
}

func (im *Image) page(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	if pn == im.lastPN && im.last != nil {
		return im.last
	}
	i := pn - allocBase>>pageBits // wraps past len(dense) below the base
	p := (*[pageSize]byte)(nil)
	if i < uint64(len(im.dense)) {
		p = im.dense[i]
	}
	if p == nil {
		if p = im.pages[pn]; p == nil {
			p = new([pageSize]byte)
			im.pages[pn] = p
		}
		if i < uint64(len(im.dense)) {
			im.dense[i] = p
		}
	}
	im.last, im.lastPN = p, pn
	return p
}

// ReadBytes copies len(p) bytes starting at addr into p.
func (im *Image) ReadBytes(addr uint64, p []byte) {
	for len(p) > 0 {
		pg := im.page(addr)
		off := int(addr & (pageSize - 1))
		n := copy(p, pg[off:])
		p = p[n:]
		addr += uint64(n)
	}
}

// WriteBytes copies p into memory starting at addr.
func (im *Image) WriteBytes(addr uint64, p []byte) {
	for len(p) > 0 {
		pg := im.page(addr)
		off := int(addr & (pageSize - 1))
		n := copy(pg[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// ReadInt loads n little-endian bytes and sign-extends.
func (im *Image) ReadInt(addr uint64, n int) int64 {
	var buf [8]byte
	im.ReadBytes(addr, buf[:n])
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(buf[i]) << (8 * uint(i))
	}
	shift := uint(64 - 8*n)
	return int64(v<<shift) >> shift
}

// WriteInt stores the low n bytes of v little-endian.
func (im *Image) WriteInt(addr uint64, n int, v int64) {
	var buf [8]byte
	for i := 0; i < n; i++ {
		buf[i] = byte(uint64(v) >> (8 * uint(i)))
	}
	im.WriteBytes(addr, buf[:n])
}

// Clone returns a deep copy of the image, used to run the same initial state
// through several execution strategies. The copied pages share one slab, so
// a clone costs a few allocations however many pages the image holds.
func (im *Image) Clone() *Image {
	c := &Image{pages: make(map[uint64]*[pageSize]byte, len(im.pages)), next: im.next}
	slab := make([][pageSize]byte, len(im.pages))
	i := 0
	for pn, p := range im.pages {
		slab[i] = *p
		c.pages[pn] = &slab[i]
		i++
	}
	return c
}

// Equal reports whether two images hold identical contents. Zero pages are
// treated as absent.
func (im *Image) Equal(o *Image) bool {
	return im.coveredBy(o) && o.coveredBy(im)
}

func isZero(p *[pageSize]byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

func (im *Image) coveredBy(o *Image) bool {
	for pn, p := range im.pages {
		q := o.pages[pn]
		if q == nil {
			if !isZero(p) {
				return false
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	return true
}

// zeroPage stands in for a page one image lacks: untouched memory reads as
// zero.
var zeroPage [pageSize]byte

// FirstDiff returns the lowest address at which the images differ, for test
// diagnostics. The second result is false when the images are equal. Pages
// are compared whole; bytes are scanned only inside a page that differs.
func (im *Image) FirstDiff(o *Image) (uint64, bool) {
	var lowest uint64
	found := false
	check := func(pn uint64, a, b *[pageSize]byte) {
		if found && pn<<pageBits > lowest {
			return
		}
		if a == nil {
			a = &zeroPage
		}
		if b == nil {
			b = &zeroPage
		}
		if *a == *b {
			return
		}
		for i := range a {
			if a[i] != b[i] {
				lowest, found = pn<<pageBits+uint64(i), true
				return
			}
		}
	}
	for pn, a := range im.pages {
		check(pn, a, o.pages[pn])
	}
	for pn, b := range o.pages {
		if im.pages[pn] == nil {
			check(pn, nil, b)
		}
	}
	return lowest, found
}
