package lsu

import (
	"math/rand"
	"testing"

	"srvsim/internal/core"
	"srvsim/internal/isa"
)

// indexedEntries walks both line-index tables and returns how many entries
// they hold. It fails the test on any chained entry that is not a live,
// valid entry of that queue sitting in the bucket of its first line.
func indexedEntries(t *testing.T, l *LSU) int {
	t.Helper()
	live := make(map[*Entry]bool)
	for e := l.head; e != nil; e = e.next {
		live[e] = true
	}
	n := 0
	for _, isStore := range []bool{false, true} {
		x := l.lineTable(isStore)
		for b, head := range x.buckets {
			for e := head; e != nil; e = e.bnext {
				switch {
				case !live[e]:
					t.Fatalf("bucket %d holds a dead entry (id=%d lines %#x-%#x)", b, e.ID, e.idxLo, e.idxHi)
				case !e.Valid || e.IsStore != isStore:
					t.Fatalf("bucket %d holds entry id=%d valid=%v store=%v in the wrong table", b, e.ID, e.Valid, e.IsStore)
				case e.idxLo&x.mask != uint64(b):
					t.Fatalf("entry id=%d with first line %#x chained in bucket %d", e.ID, e.idxLo, b)
				}
				n++
			}
		}
	}
	return n
}

// TestLineIndexHoldsOnlyLiveEntries streams loads and stores over ever-new
// cache lines, retiring the oldest as it goes: the index must hold exactly
// the live entries at every step, and nothing once all of them retire. A
// region of gather lanes then commits and must leave the index empty too.
func TestLineIndexHoldsOnlyLiveEntries(t *testing.T) {
	l, _, ctrl := newLSU(16)
	var inflight []*Entry
	seq := int64(0)
	retire := func(e *Entry) {
		if e.IsStore {
			l.CommitStore(e)
		} else {
			l.Release(e)
		}
	}
	for i := 0; i < 2000; i++ {
		addr := 0x10000 + uint64(i)*72 // a new line nearly every step, some accesses straddle two
		seq++
		st := reserve(t, l, NoInstance, 1, -1, true, seq)
		l.ExecStore(st, core.KindScalar, addr, 8, isa.DirUp, all(), all(), isa.Vec{0: int64(i)}, seq)
		seq++
		ld := reserve(t, l, NoInstance, 2, -1, false, seq)
		l.ExecLoad(ld, core.KindContig, addr+4, 2, isa.DirUp, all(), all(), seq)
		inflight = append(inflight, st, ld)
		for len(inflight) > 10 {
			retire(inflight[0])
			inflight = inflight[1:]
		}
		if got := indexedEntries(t, l); got != l.Len() {
			t.Fatalf("step %d: index holds %d entries, %d live", i, got, l.Len())
		}
	}
	for _, e := range inflight {
		retire(e)
	}
	if got := indexedEntries(t, l); got != 0 || l.Len() != 0 {
		t.Fatalf("after retiring everything: index holds %d entries, %d live", got, l.Len())
	}

	if err := ctrl.Start(1, isa.DirUp); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < isa.NumLanes; lane++ {
		ld := reserve(t, l, 7, 3, lane, false, seq)
		l.ExecLoad(ld, core.KindElem, 0x80000+uint64(lane)*4096, 8, isa.DirUp, all(), all(), seq)
	}
	if got := indexedEntries(t, l); got != isa.NumLanes {
		t.Fatalf("region: index holds %d entries, want %d", got, isa.NumLanes)
	}
	l.CommitRegion(7)
	if got := indexedEntries(t, l); got != 0 || l.Len() != 0 {
		t.Fatalf("after region commit: index holds %d entries, %d live", got, l.Len())
	}
}

// TestCollectMatchesLinearScan checks the bucket walk against a scan of the
// live list: for random footprints (up to a 128-byte contiguous access
// straddling three lines) and random queries, collect returns exactly the
// valid entries of the queue whose line range overlaps the query's, in
// allocation order.
func TestCollectMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, _, _ := newLSU(64)
	seq := int64(0)
	var live []*Entry
	for step := 0; step < 3000; step++ {
		if len(live) == l.Capacity() || (len(live) > 0 && rng.Intn(3) == 0) {
			i := rng.Intn(len(live))
			l.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			seq++
			e := reserve(t, l, NoInstance, 1, -1, false, seq)
			live = append(live, e)
			addr := 0x4000 + uint64(rng.Intn(1<<12))
			if rng.Intn(2) == 0 {
				l.ExecLoad(e, core.KindContig, addr, 8, isa.DirUp, all(), all(), seq)
			} else {
				l.ExecLoad(e, core.KindScalar, addr, 1<<rng.Intn(4), isa.DirUp, all(), all(), seq)
			}
		}
		addr, n := 0x4000+uint64(rng.Intn(1<<12)), 1+rng.Intn(128)
		lo, hi := addr>>lineShift, (addr+uint64(n)-1)>>lineShift
		var want []*Entry
		for e := l.head; e != nil; e = e.next {
			eLo, eHi := e.Addr>>lineShift, (e.Addr+uint64(e.footprint())-1)>>lineShift
			if e.Valid && !e.IsStore && eLo <= hi && eHi >= lo {
				want = append(want, e)
			}
		}
		got := l.collect(false, addr, n)
		if len(got) != len(want) {
			t.Fatalf("step %d: collect(%#x, %d) found %d entries, linear scan %d", step, addr, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: collect(%#x, %d)[%d] is alloc %d, want alloc %d", step, addr, n, i, got[i].alloc, want[i].alloc)
			}
		}
	}
}
