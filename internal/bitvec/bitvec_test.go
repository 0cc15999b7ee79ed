package bitvec

import "testing"

func TestBaseOffset(t *testing.T) {
	cases := []struct {
		addr uint64
		base uint64
		off  int
	}{
		{0x0, 0x0, 0},
		{0x3F, 0x0, 63},
		{0x40, 0x40, 0},
		{0xAB10, 0xAB00, 16},
		{0xFF0C, 0xFF00, 12},
	}
	for _, c := range cases {
		if got := Base(c.addr); got != c.base {
			t.Errorf("Base(%#x) = %#x, want %#x", c.addr, got, c.base)
		}
		if got := Offset(c.addr); got != c.off {
			t.Errorf("Offset(%#x) = %d, want %d", c.addr, got, c.off)
		}
	}
}

func TestSetAddGetReset(t *testing.T) {
	// An 8-byte write at 0x3C crosses the region boundary at 0x40: the
	// caller splits it into one RegionMask per region.
	s := NewSet()
	s.Add(RegionMask{Base: 0x00, Mask: 0xF << 60})
	s.Add(RegionMask{Base: 0x40, Mask: 0xF})
	s.Add(RegionMask{Base: 0x40, Mask: 0x3 << 2}) // overlaps: OR, not replace
	if got := s.Get(0x00); got != 0xF<<60 || got.Count() != 4 {
		t.Errorf("region 0x00 = %#x, want bytes 60..63", uint64(got))
	}
	if got := s.Get(0x40); got != 0xF {
		t.Errorf("region 0x40 = %#x, want bytes 0..3", uint64(got))
	}
	if got := s.Get(0x80); got != 0 {
		t.Errorf("untouched region = %#x, want 0", uint64(got))
	}
	s.Reset()
	if s.Get(0x00) != 0 || s.Get(0x40) != 0 {
		t.Error("Reset must empty every region")
	}
}
