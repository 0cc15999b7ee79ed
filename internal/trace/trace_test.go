package trace

import (
	"math"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/mem"
)

func idxLoop(n int, fill func(i int) int64) (*compiler.Loop, *mem.Image) {
	a := &compiler.Array{Name: "a", Elem: 4, Len: n + 32}
	x := &compiler.Array{Name: "x", Elem: 4, Len: n}
	l := &compiler.Loop{Name: "t", Trip: n, Body: []compiler.Stmt{{
		Dst: a, Idx: compiler.Via(x, 1, 0),
		Val: compiler.Bin{Op: compiler.OpAdd,
			L: compiler.Ref{Arr: a, Idx: compiler.Affine(1, 0)},
			R: compiler.Const{V: 1}},
	}}}
	im := mem.NewImage()
	l.Bind(im)
	for i := 0; i < n; i++ {
		im.WriteInt(x.Addr(int64(i)), 4, fill(i))
	}
	return l, im
}

func TestProfileConflictFree(t *testing.T) {
	l, im := idxLoop(64, func(i int) int64 { return int64(i) })
	p := ProfileLoop(l, im)
	if p.HadRuntimeRAW {
		t.Error("identity indices must not produce runtime RAW")
	}
	if p.Subgroups != p.Groups {
		t.Errorf("subgroups = %d, want %d", p.Subgroups, p.Groups)
	}
	if math.Abs(p.IdealSpeedup-16) > 0.01 {
		t.Errorf("ideal speedup = %.2f, want 16", p.IdealSpeedup)
	}
	if p.Verdict != compiler.VerdictUnknown {
		t.Errorf("verdict = %v, want unknown (indirect store)", p.Verdict)
	}
}

func TestProfileSerialChain(t *testing.T) {
	l, im := idxLoop(64, func(i int) int64 { return int64(i + 1) })
	p := ProfileLoop(l, im)
	if !p.HadRuntimeRAW {
		t.Error("serial chain must produce runtime RAW")
	}
	if p.IdealSpeedup > 1.01 {
		t.Errorf("serial chain ideal speedup = %.2f, want ~1", p.IdealSpeedup)
	}
}

func TestProfileEpilogue(t *testing.T) {
	l, im := idxLoop(20, func(i int) int64 { return int64(i) })
	p := ProfileLoop(l, im)
	if p.Groups != 1 || p.RemainderIts != 4 {
		t.Errorf("groups/remainder = %d/%d, want 1/4", p.Groups, p.RemainderIts)
	}
}

// TestProfileDescending: a descending loop's groups run from the highest
// iteration down, so the chain that serialises an ascending loop is
// conflict-free counting down, the mirrored chain serialises, and the
// remainder is the lowest iterations. The emulation leaves memory exactly
// as the reference evaluator does.
func TestProfileDescending(t *testing.T) {
	up, _ := idxLoop(64, func(i int) int64 { return int64(i + 1) })
	up.Down = true
	_, im := idxLoop(64, func(i int) int64 { return int64(i + 1) })
	if p := ProfileLoop(up, im); p.HadRuntimeRAW || p.Subgroups != p.Groups || p.Groups != 4 {
		t.Errorf("store to a[i+1] counting down: groups/subgroups = %d/%d, RAW %v; want 4/4, none",
			p.Groups, p.Subgroups, p.HadRuntimeRAW)
	}

	down := func(i int) int64 { return int64(max(i-1, 0)) }
	for _, n := range []int{64, 20} {
		l, im := idxLoop(n, down)
		l.Down = true
		ref := im.Clone()
		compiler.Eval(l, ref)
		p := ProfileLoop(l, im)
		if !p.HadRuntimeRAW || p.Subgroups != 16*p.Groups {
			t.Errorf("trip %d, store to a[i-1] counting down: subgroups = %d for %d groups, RAW %v; want 16 per group",
				n, p.Subgroups, p.Groups, p.HadRuntimeRAW)
		}
		if want := int64(n % 16); p.RemainderIts != want {
			t.Errorf("trip %d: remainder = %d, want %d", n, p.RemainderIts, want)
		}
		if addr, diff := im.FirstDiff(ref); diff {
			t.Errorf("trip %d: emulated memory differs from the reference at %#x", n, addr)
		}
	}
}

func TestSummariseAmdahl(t *testing.T) {
	mk := func(v compiler.Verdict, sp, w float64) WeightedLoop {
		return WeightedLoop{Profile: LoopProfile{Verdict: v, IdealSpeedup: sp}, Weight: w}
	}
	// One safe loop (10% of program, 16x) and one unknown loop (40%, 16x).
	s := Summarise([]WeightedLoop{
		mk(compiler.VerdictSafe, 16, 0.10),
		mk(compiler.VerdictUnknown, 16, 0.40),
	})
	wantAll := 1 / (1 - 0.5 + 0.5/16)
	if math.Abs(s.PotentialAll-wantAll) > 1e-9 {
		t.Errorf("PotentialAll = %.4f, want %.4f", s.PotentialAll, wantAll)
	}
	wantSafe := 1 / (1 - 0.1 + 0.1/16)
	if math.Abs(s.PotentialSafeOnly-wantSafe) > 1e-9 {
		t.Errorf("PotentialSafeOnly = %.4f, want %.4f", s.PotentialSafeOnly, wantSafe)
	}
	if s.UnknownFrac != 1.0 {
		t.Errorf("UnknownFrac = %.2f, want 1.0", s.UnknownFrac)
	}
}
