package lsu

import (
	"testing"

	"srvsim/internal/core"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// The benchmarks exercise the LSU hot paths the pipeline hits on every
// memory instruction: entry allocation, load execution against a populated
// store queue, store execution with WAR/WAW disambiguation, and region
// commit. Run with -benchmem; the point of the address index, free list and
// scratch buffers is the allocs/op column.

func benchLSU(b *testing.B) (*LSU, *mem.Image, *core.Controller) {
	b.Helper()
	im := mem.NewImage()
	for a := uint64(0x1000); a < 0x3000; a++ {
		im.WriteInt(a, 1, int64(a&0xFF))
	}
	ctrl := &core.Controller{}
	if err := ctrl.Start(1, isa.DirUp); err != nil {
		b.Fatalf("Start: %v", err)
	}
	return New(256, im, ctrl), im, ctrl
}

// mustReserve is the benchmark-side counterpart of the tests' reserve helper.
func mustReserve(b *testing.B, l *LSU, instance, id, lane int, isStore bool, seq int64) *Entry {
	b.Helper()
	r := l.Reserve(instance, id, lane, isStore, seq)
	if !r.OK {
		b.Fatalf("Reserve(%d,%d,%d) failed", instance, id, lane)
	}
	return r.Entry
}

func BenchmarkReserveRelease(b *testing.B) {
	l, _, _ := benchLSU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := l.Reserve(NoInstance, 10, -1, false, int64(i+1))
		if !r.OK {
			b.Fatal("Reserve failed")
		}
		l.Release(r.Entry)
	}
}

// BenchmarkReserveRegion measures the region path of Reserve: each
// iteration reserves a lane-indexed entry per lane in a fresh region
// instance, re-reserves each by the same (instance, SRV-id, lane) as a
// replay does, and frees the instance two back, so three are live at once.
func BenchmarkReserveRegion(b *testing.B) {
	l, _, _ := benchLSU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i + 1)
		for lane := 0; lane < isa.NumLanes; lane++ {
			r := l.Reserve(i, 7, lane, false, seq)
			if !r.OK || l.Reserve(i, 7, lane, false, seq).Entry != r.Entry {
				b.Fatal("reserve failed or re-reserve allocated a fresh entry")
			}
		}
		if i >= 2 {
			l.DiscardRegion(i - 2)
		}
	}
}

// BenchmarkExecLoad measures a load resolving against a store queue holding
// 24 live stores on nearby cachelines — the candidate-search path.
func BenchmarkExecLoad(b *testing.B) {
	l, _, _ := benchLSU(b)
	for i := 0; i < 24; i++ {
		st := mustReserve(b, l, NoInstance, 10+i, -1, true, int64(i+1))
		l.ExecStore(st, core.KindScalar, 0x1000+uint64(i*64), 8, isa.DirUp,
			all(), all(), isa.Vec{0: int64(i)}, int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(100 + i)
		ld := mustReserve(b, l, NoInstance, 99, -1, false, seq)
		l.ExecLoad(ld, core.KindScalar, 0x1000+uint64(i%24)*64, 8, isa.DirUp,
			all(), all(), seq)
		l.Release(ld)
	}
}

// BenchmarkExecStore measures store execution (value encode, index insert,
// disambiguation against resident loads) followed by commit write-back.
func BenchmarkExecStore(b *testing.B) {
	l, _, _ := benchLSU(b)
	for i := 0; i < 16; i++ {
		ld := mustReserve(b, l, NoInstance, 10+i, -1, false, int64(i+1))
		l.ExecLoad(ld, core.KindScalar, 0x2000+uint64(i*64), 8, isa.DirUp,
			all(), all(), int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(100 + i)
		st := mustReserve(b, l, NoInstance, 99, -1, true, seq)
		l.ExecStore(st, core.KindScalar, 0x2000+uint64(i%16)*64, 8, isa.DirUp,
			all(), all(), isa.Vec{0: int64(i)}, seq)
		l.CommitStore(st)
	}
}

// BenchmarkCommitRegion builds a 16-lane region with a contiguous store per
// iteration slot and commits it: collect, sequential-order sort, per-byte
// WAW-resolved write-back, free.
func BenchmarkCommitRegion(b *testing.B) {
	l, _, _ := benchLSU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			st := mustReserve(b, l, 0, 2+j, -1, true, int64(j+1))
			l.ExecStore(st, core.KindContig, 0x1000+uint64(j*16), 1, isa.DirUp,
				all(), all(), vecOf(func(k int) int64 { return int64(k + j) }), int64(j+1))
		}
		l.CommitRegion(0)
		if l.Len() != 0 {
			b.Fatalf("region not freed: %d live", l.Len())
		}
	}
}
