package compiler

import (
	"fmt"
	"math/rand"
	"testing"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/pipeline"
)

// slpBlock builds 16 isomorphic statements q[k] = p[k] + 1 where p and q are
// pointer parameters that MAY alias (same alias group). When they are bound
// to the same storage with an offset, the statements carry genuine
// cross-statement dependences the compiler cannot see.
func slpBlock(n int) (*Block, *Array, *Array) {
	p := &Array{Name: "p", Elem: 4, Len: 64, AliasGroup: 1}
	q := &Array{Name: "q", Elem: 4, Len: 64, AliasGroup: 1}
	b := &Block{Name: "slp"}
	for k := 0; k < n; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{
			Dst: q, DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Affine(0, int64(k))}, R: Const{V: 1}},
		})
	}
	return b, p, q
}

func TestSLPPackGrouping(t *testing.T) {
	b, _, q := slpBlock(16)
	// Insert a non-isomorphic statement in the middle: breaks the run.
	odd := SLPStmt{Dst: q, DstIdx: 50, Val: Const{V: 9}}
	b.Stmts = append(b.Stmts[:8], append([]SLPStmt{odd}, b.Stmts[8:]...)...)
	packs := PackBlock(b)
	if len(packs) != 3 {
		t.Fatalf("packs = %d, want 3 (8 + 1 + 8)", len(packs))
	}
	if len(packs[0].Stmts) != 8 || len(packs[1].Stmts) != 1 || len(packs[2].Stmts) != 8 {
		t.Errorf("pack sizes = %d/%d/%d, want 8/1/8",
			len(packs[0].Stmts), len(packs[1].Stmts), len(packs[2].Stmts))
	}
}

// compileAndRef compiles the block (which materialises its constant index
// tables into im) and THEN snapshots the sequential reference, so the
// tables are identical in both images.
func compileAndRef(t *testing.T, b *Block, im *mem.Image, mode Mode) (*isa.Program, *mem.Image) {
	t.Helper()
	prog, err := CompileBlock(b, im, mode)
	if err != nil {
		t.Fatal(err)
	}
	ref := im.Clone()
	EvalBlock(b, ref)
	return prog, ref
}

func runBlockProg(t *testing.T, prog *isa.Program, im *mem.Image) *pipeline.Pipeline {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 1_000_000
	p := pipeline.New(cfg, prog, im)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSLPNoAliasAtRuntime(t *testing.T) {
	// p and q may alias but are bound to distinct storage: the pack runs
	// without replays and matches the sequential reference.
	b, p, q := slpBlock(16)
	im := mem.NewImage()
	b.Bind(im)
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k*7))
	}
	prog, ref := compileAndRef(t, b, im, ModeSRV)
	pl := runBlockProg(t, prog, im)
	if addr, diff := im.FirstDiff(ref); diff {
		t.Fatalf("SLP pack diverges at %#x", addr)
	}
	if pl.Ctrl.Stats.Regions != 1 {
		t.Errorf("regions = %d, want 1 (one pack)", pl.Ctrl.Stats.Regions)
	}
	if pl.Ctrl.Stats.Replays != 0 {
		t.Errorf("replays = %d, want 0 (no aliasing at run time)", pl.Ctrl.Stats.Replays)
	}
	_ = q
}

func TestSLPGenuineAliasRepairedByReplay(t *testing.T) {
	// Bind q to p's storage shifted by one element: statement k reads p[k]
	// and writes p[k+1] — a serial chain across the pack's lanes. SVE-style
	// packing would be wrong; SRV replays until the chain resolves.
	b, p, q := slpBlock(16)
	im := mem.NewImage()
	p.Base = im.Alloc(4*64, 64)
	q.Base = p.Base + 4 // q[k] == p[k+1]
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k))
	}
	prog, ref := compileAndRef(t, b, im, ModeSRV)
	// Sanity: the chain makes p[k+1] = p[k]+1 = ... = p[0]+k+1.
	for k := 1; k <= 16; k++ {
		if got := ref.ReadInt(p.Addr(int64(k)), 4); got != int64(k) {
			t.Fatalf("reference p[%d] = %d, want %d", k, got, k)
		}
	}

	pl := runBlockProg(t, prog, im)
	if addr, diff := im.FirstDiff(ref); diff {
		t.Fatalf("aliased SLP pack diverges at %#x", addr)
	}
	if pl.Ctrl.Stats.Replays == 0 {
		t.Error("genuine aliasing must trigger replays")
	}
	if pl.Ctrl.Stats.Replays > isa.NumLanes-1 {
		t.Errorf("replays = %d, exceed the N-1 bound", pl.Ctrl.Stats.Replays)
	}
}

func TestSLPScalarMatchesReference(t *testing.T) {
	b, p, q := slpBlock(12) // partial pack
	im := mem.NewImage()
	b.Bind(im)
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k*3+5))
	}
	prog, ref := compileAndRef(t, b, im, ModeScalar)
	runBlockProg(t, prog, im)
	if addr, diff := im.FirstDiff(ref); diff {
		t.Fatalf("scalar block diverges at %#x", addr)
	}
	_ = q
}

func TestSLPPartialPack(t *testing.T) {
	// 12 statements: a single pack under a 12-lane predicate.
	b, p, _ := slpBlock(12)
	im := mem.NewImage()
	b.Bind(im)
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k+100))
	}
	prog, ref := compileAndRef(t, b, im, ModeSRV)
	pl := runBlockProg(t, prog, im)
	if addr, diff := im.FirstDiff(ref); diff {
		t.Fatalf("partial pack diverges at %#x", addr)
	}
	if pl.Ctrl.Stats.Regions != 1 {
		t.Errorf("regions = %d, want 1", pl.Ctrl.Stats.Regions)
	}
}

func TestSLPSVERejected(t *testing.T) {
	b, _, _ := slpBlock(16)
	if _, err := CompileBlock(b, mem.NewImage(), ModeSVE); err == nil {
		t.Fatal("SVE-style packing of may-alias statements must be rejected")
	}
}

func TestAliasGroupLoopAnalysis(t *testing.T) {
	// Loop-level alias groups: two distinct arrays in one group make the
	// loop an SRV candidate (livermore-style pointer parameters).
	n := 64
	p := &Array{Name: "p", Elem: 4, Len: n, AliasGroup: 2}
	q := &Array{Name: "q", Elem: 4, Len: n, AliasGroup: 2}
	l := &Loop{Name: "maybealias", Trip: n, Body: []Stmt{{
		Dst: q, Idx: Affine(1, 0),
		Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Affine(1, 0)}, R: Const{V: 1}},
	}}}
	if got := Analyse(l).Verdict; got != VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown (alias group)", got)
	}
	// Without the group, provably safe.
	p.AliasGroup, q.AliasGroup = 0, 0
	if got := Analyse(l).Verdict; got != VerdictSafe {
		t.Fatalf("verdict = %v, want safe", got)
	}
}

// TestSLPFuzzAliasOffsets packs the same block under every aliasing offset
// between the two "pointers": from fully disjoint through every overlap
// distance, the packed execution must match sequential semantics.
func TestSLPFuzzAliasOffsets(t *testing.T) {
	for off := -20; off <= 20; off++ {
		b, p, q := slpBlock(16)
		im := mem.NewImage()
		p.Base = im.Alloc(4*128, 64) + 4*40 // room for negative offsets
		q.Base = uint64(int64(p.Base) + int64(4*off))
		for k := -40; k < 88; k++ {
			im.WriteInt(p.Addr(int64(k)), 4, int64(k*13+7))
		}
		prog, ref := compileAndRef(t, b, im, ModeSRV)
		pl := runBlockProg(t, prog, im)
		if addr, diff := im.FirstDiff(ref); diff {
			t.Fatalf("offset %d: pack diverges at %#x (replays=%d)",
				off, addr, pl.Ctrl.Stats.Replays)
		}
		if pl.Ctrl.Stats.Replays > isa.NumLanes-1 {
			t.Fatalf("offset %d: replays = %d exceed the N-1 bound", off, pl.Ctrl.Stats.Replays)
		}
	}
}

// TestSLPFuzzGuardedAliasOffsets repeats the alias-offset sweep with every
// statement guarded: the if-converted predicate must compose with replay
// at every overlap offset.
func TestSLPFuzzGuardedAliasOffsets(t *testing.T) {
	for off := -12; off <= 12; off++ {
		b, p, q, m := guardedBlock(16, 6)
		im := mem.NewImage()
		p.Base = im.Alloc(4*128, 64) + 4*40
		q.Base = uint64(int64(p.Base) + int64(4*off))
		m.Base = im.Alloc(4*64, 64)
		for k := -40; k < 88; k++ {
			im.WriteInt(p.Addr(int64(k)), 4, int64(k*13+7))
		}
		for k := 0; k < 64; k++ {
			im.WriteInt(m.Addr(int64(k)), 4, int64((k*5)%10))
		}
		prog, ref := compileAndRef(t, b, im, ModeSRV)
		pl := runBlockProg(t, prog, im)
		if addr, diff := im.FirstDiff(ref); diff {
			t.Fatalf("offset %d: guarded pack diverges at %#x (replays=%d)",
				off, addr, pl.Ctrl.Stats.Replays)
		}
		if pl.Ctrl.Stats.Replays > isa.NumLanes-1 {
			t.Fatalf("offset %d: replays = %d exceed the N-1 bound", off, pl.Ctrl.Stats.Replays)
		}
	}
}

// guardedBlock builds a pack of guarded statements over may-aliasing
// arrays: if (m[k] < cut) p[k] = q[k+off] + 50.
func guardedBlock(n int, cut int64) (*Block, *Array, *Array, *Array) {
	p := &Array{Name: "p", Elem: 4, Len: 64, AliasGroup: 2}
	q := &Array{Name: "q", Elem: 4, Len: 64, AliasGroup: 2}
	m := &Array{Name: "m", Elem: 4, Len: 64}
	b := &Block{Name: "guarded"}
	for k := 0; k < n; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{
			Dst: p, DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: q, Idx: Affine(0, int64(k+2))}, R: Const{V: 50}},
			Guard: &Mask{Op: CmpLT,
				L: Ref{Arr: m, Idx: Affine(0, int64(k))}, R: Const{V: cut}},
		})
	}
	return b, p, q, m
}

// TestSLPGuardedPack: guarded statements pack into one predicated SRV
// region; the guard if-converts into the governing predicate and composes
// with the partial-pack mask, in both scalar and SRV modes, with and
// without runtime aliasing.
func TestSLPGuardedPack(t *testing.T) {
	for _, alias := range []bool{false, true} {
		for _, n := range []int{16, 10} { // full and partial packs
			b, p, q, m := guardedBlock(n, 5)
			im := mem.NewImage()
			b.Bind(im)
			if alias {
				q.Base = p.Base + 4 // q[k] = p[k+1]: genuine overlap
			}
			for k := 0; k < 64; k++ {
				im.WriteInt(p.Addr(int64(k)), 4, int64(k*3))
				if !alias {
					im.WriteInt(q.Addr(int64(k)), 4, int64(k*3))
				}
				im.WriteInt(m.Addr(int64(k)), 4, int64(k%10))
			}
			prog, ref := compileAndRef(t, b, im, ModeSRV)
			pl := runBlockProg(t, prog, im)
			for k := 0; k < 64; k++ {
				w, g := ref.ReadInt(p.Addr(int64(k)), 4), im.ReadInt(p.Addr(int64(k)), 4)
				if w != g {
					t.Fatalf("alias=%v n=%d: p[%d] = %d, want %d", alias, n, k, g, w)
				}
			}
			if pl.Ctrl.Stats.Regions == 0 {
				t.Fatalf("alias=%v n=%d: the guarded pack must run as an SRV region", alias, n)
			}

			// Scalar mode agrees.
			b2, p2, q2, m2 := guardedBlock(n, 5)
			im2 := mem.NewImage()
			b2.Bind(im2)
			if alias {
				q2.Base = p2.Base + 4
			}
			for k := 0; k < 64; k++ {
				im2.WriteInt(p2.Addr(int64(k)), 4, int64(k*3))
				if !alias {
					im2.WriteInt(q2.Addr(int64(k)), 4, int64(k*3))
				}
				im2.WriteInt(m2.Addr(int64(k)), 4, int64(k%10))
			}
			prog2, ref2 := compileAndRef(t, b2, im2, ModeScalar)
			runBlockProg(t, prog2, im2)
			for k := 0; k < 64; k++ {
				w, g := ref2.ReadInt(p2.Addr(int64(k)), 4), im2.ReadInt(p2.Addr(int64(k)), 4)
				if w != g {
					t.Fatalf("scalar alias=%v n=%d: p[%d] = %d, want %d", alias, n, k, g, w)
				}
			}
		}
	}
}

// TestSLPGuardSignatureSeparation: guarded and unguarded statements must
// not pack together.
func TestSLPGuardSignatureSeparation(t *testing.T) {
	p := &Array{Name: "p", Elem: 4, Len: 64}
	m := &Array{Name: "m", Elem: 4, Len: 64}
	b := &Block{Name: "mix"}
	for k := 0; k < 4; k++ {
		s := SLPStmt{Dst: p, DstIdx: int64(k), Val: Const{V: int64(k)}}
		if k >= 2 {
			s.Guard = &Mask{Op: CmpLT,
				L: Ref{Arr: m, Idx: Affine(0, int64(k))}, R: Const{V: 1}}
		}
		b.Stmts = append(b.Stmts, s)
	}
	packs := PackBlock(b)
	if len(packs) != 2 || len(packs[0].Stmts) != 2 || len(packs[1].Stmts) != 2 {
		t.Fatalf("packs = %v, want two packs of two (guard splits the run)", packLens(packs))
	}
}

func packLens(ps []Pack) []int {
	var out []int
	for _, p := range ps {
		out = append(out, len(p.Stmts))
	}
	return out
}

// checkBlock compiles and runs the block in scalar and SRV mode, each on a
// clone of the seeded image, and requires memory equal to EvalBlock's.
func checkBlock(t *testing.T, b *Block, im *mem.Image) {
	t.Helper()
	for _, mode := range []Mode{ModeScalar, ModeSRV} {
		run := im.Clone()
		prog, ref := compileAndRef(t, b, run, mode)
		pl := runBlockProg(t, prog, run)
		if addr, diff := run.FirstDiff(ref); diff {
			t.Fatalf("%s: block %s diverges at %#x: got %d, want %d (replays=%d)", mode, b.Name,
				addr, run.ReadInt(addr, 4), ref.ReadInt(addr, 4), pl.Ctrl.Stats.Replays)
		}
	}
}

// TestSLPViaSubscript: a statement that reads through an index array
// (p[x[k]]) cannot pack; it must still read the element the index array
// names, not p[k].
func TestSLPViaSubscript(t *testing.T) {
	p := &Array{Name: "p", Elem: 4, Len: 64}
	q := &Array{Name: "q", Elem: 4, Len: 64}
	x := &Array{Name: "x", Elem: 4, Len: 16}
	b := &Block{Name: "via"}
	for k := 0; k < 4; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{Dst: q, DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Via(x, 0, int64(k))}, R: Const{V: 1000}}})
	}
	for k := 4; k < 12; k++ { // a packable run after the Via statements
		b.Stmts = append(b.Stmts, SLPStmt{Dst: q, DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Affine(0, int64(k))}, R: Const{V: 1000}}})
	}
	im := mem.NewImage()
	b.Bind(im)
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k))
	}
	for k := 0; k < 16; k++ {
		im.WriteInt(x.Addr(int64(k)), 4, int64(42-k))
	}
	ref := im.Clone()
	EvalBlock(b, ref)
	if got := ref.ReadInt(q.Addr(0), 4); got != 1042 {
		t.Fatalf("reference q[0] = %d, want 1042", got)
	}
	checkBlock(t, b, im)
}

// TestSLPShr: shifts pack when every lane shifts by the same amount, and a
// different amount starts a new pack.
func TestSLPShr(t *testing.T) {
	p := &Array{Name: "p", Elem: 4, Len: 64, AliasGroup: 1}
	q := &Array{Name: "q", Elem: 4, Len: 64, AliasGroup: 1}
	b := &Block{Name: "shr"}
	for k := 0; k < 12; k++ {
		shift := int64(2)
		if k >= 8 {
			shift = 5
		}
		b.Stmts = append(b.Stmts, SLPStmt{Dst: q, DstIdx: int64(k),
			Val: Bin{Op: OpShr, L: Ref{Arr: p, Idx: Affine(0, int64(k))}, R: Const{V: shift}}})
	}
	if got := packLens(PackBlock(b)); len(got) != 2 || got[0] != 8 || got[1] != 4 {
		t.Fatalf("packs = %v, want [8 4] (the shift amount splits the run)", got)
	}
	im := mem.NewImage()
	p.Base = im.Alloc(4*64, 64)
	q.Base = p.Base + 4 // genuine overlap
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k*1000+999))
	}
	checkBlock(t, b, im)
}

// TestSLPConstLanes: statements that differ only in their constants pack,
// and each lane adds its own constant.
func TestSLPConstLanes(t *testing.T) {
	p := &Array{Name: "p", Elem: 4, Len: 64}
	b := &Block{Name: "consts"}
	for k := 0; k < 10; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{Dst: p, DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Affine(0, int64(k+1))}, R: Const{V: int64(100 * k)}}})
	}
	if got := packLens(PackBlock(b)); len(got) != 1 {
		t.Fatalf("packs = %v, want one pack of 10", got)
	}
	im := mem.NewImage()
	b.Bind(im)
	for k := 0; k < 64; k++ {
		im.WriteInt(p.Addr(int64(k)), 4, int64(k))
	}
	checkBlock(t, b, im)
}

// TestSLPManyArrays: 40 statements over 30 arrays with 40 distinct
// constants pack nowhere and need more fixed registers than one loop has,
// so the scalar run splits into several loops.
func TestSLPManyArrays(t *testing.T) {
	b := manyArrayBlock()
	im := mem.NewImage()
	for _, a := range b.Bind(im) {
		for k := 0; k < a.Len; k++ {
			im.WriteInt(a.Addr(int64(k)), a.Elem, int64(k*31+a.Len))
		}
	}
	checkBlock(t, b, im)
}

// manyArrayBlock builds a[k%30][k] = a[(7k+3)%30][k+1] + (1000+k) for
// k = 0..39.
func manyArrayBlock() *Block {
	arrs := make([]*Array, 30)
	for i := range arrs {
		arrs[i] = &Array{Name: fmt.Sprintf("a%02d", i), Elem: 4, Len: 64}
	}
	b := &Block{Name: "many"}
	for k := 0; k < 40; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{Dst: arrs[k%30], DstIdx: int64(k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: arrs[(7*k+3)%30], Idx: Affine(0, int64(k+1))}, R: Const{V: int64(1000 + k)}}})
	}
	return b
}

// Feature bits of a FuzzCompileBlock input.
const (
	fuzzGuard = 1 << iota // guarded runs
	fuzzIV                // IV leaves
	fuzzShr               // OpShr runs
	fuzzVia               // Via subscripts (never packed)
	fuzzMany              // the 40-statement, 30-array block instead
)

// FuzzCompileBlock compiles a random block in scalar and SRV mode, runs it
// on the pipeline and requires memory equal to EvalBlock's. The block is
// runs of isomorphic statements over p and q, which may alias: q sits off
// elements after p. The seed corpus is in testdata/fuzz/FuzzCompileBlock.
func FuzzCompileBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, feat uint8, off int8) {
		for _, mode := range []Mode{ModeScalar, ModeSRV} {
			b, im := randomBlock(rand.New(rand.NewSource(seed)), feat, int64(off)%21)
			prog, ref := compileAndRef(t, b, im, mode)
			runBlockProg(t, prog, im)
			if addr, diff := im.FirstDiff(ref); diff {
				t.Fatalf("%s: block diverges at %#x: got %d, want %d", mode, addr, im.ReadInt(addr, 4), ref.ReadInt(addr, 4))
			}
		}
	})
}

// randomBlock builds and seeds a FuzzCompileBlock block. p and q hold 4-byte
// elements, q starting off elements after p; subscripts stay in [0, 24], so
// every access lands in p's 128-element allocation.
func randomBlock(rng *rand.Rand, feat uint8, off int64) (*Block, *mem.Image) {
	im := mem.NewImage()
	if feat&fuzzMany != 0 {
		b := manyArrayBlock()
		for _, a := range b.Bind(im) {
			for k := 0; k < a.Len; k++ {
				im.WriteInt(a.Addr(int64(k)), a.Elem, rng.Int63n(1<<20))
			}
		}
		return b, im
	}
	p := &Array{Name: "p", Elem: 4, Len: 64, AliasGroup: 1}
	q := &Array{Name: "q", Elem: 4, Len: 64, AliasGroup: 1}
	m := &Array{Name: "m", Elem: 4, Len: 32}
	x := &Array{Name: "x", Elem: 4, Len: 32}
	p.Base = im.Alloc(4*128, 64) + 4*40
	q.Base = uint64(int64(p.Base) + 4*off)
	for k := int64(-40); k < 88; k++ {
		im.WriteInt(p.Addr(k), 4, rng.Int63n(1<<20)-(1<<19))
	}
	pick := func(n int) int64 { return int64(rng.Intn(n)) }
	b := &Block{Name: "fuzz"}
	for n := 1 + rng.Intn(40); len(b.Stmts) < n; {
		dst, src := []*Array{p, q}[rng.Intn(2)], []*Array{p, q}[rng.Intn(2)]
		ops := []BinOp{OpAdd, OpSub, OpMul, OpMulAdd, OpAnd, OpXor}
		if feat&fuzzShr != 0 {
			ops = append(ops, OpShr, OpShr)
		}
		op := ops[rng.Intn(len(ops))]
		c, shift, varyC := pick(100), pick(8), rng.Intn(2) == 0
		d0, s0, via := pick(9), pick(9), feat&fuzzVia != 0 && rng.Intn(3) == 0
		iv := feat&fuzzIV != 0 && rng.Intn(3) == 0
		guard := feat&fuzzGuard != 0 && rng.Intn(2) == 0
		cmp := CmpOp(rng.Intn(4))
		for k, run := int64(0), 1+rng.Intn(isa.NumLanes); k < int64(run); k++ {
			var l Expr = Ref{Arr: src, Idx: Affine(0, s0+k)}
			if via {
				l = Ref{Arr: src, Idx: Via(x, 0, k)}
			}
			if iv {
				l = Bin{Op: OpAdd, L: l, R: IV{}}
			}
			if varyC {
				c = pick(100)
			}
			v := Bin{Op: op, L: l, R: Const{V: c}}
			switch op {
			case OpShr:
				v.R = Const{V: shift}
			case OpMulAdd:
				v.C = Ref{Arr: dst, Idx: Affine(0, d0+k)}
			}
			s := SLPStmt{Dst: dst, DstIdx: d0 + k, Val: v}
			if guard {
				s.Guard = &Mask{Op: cmp, L: Ref{Arr: m, Idx: Affine(0, k)}, R: Const{V: 5}}
			}
			b.Stmts = append(b.Stmts, s)
		}
	}
	b.Bind(im)
	for k := int64(0); k < 32; k++ {
		im.WriteInt(m.Addr(k), 4, pick(10))
		im.WriteInt(x.Addr(k), 4, pick(25))
	}
	return b, im
}

// TestSLPRegionAfterVerticalSquash: the scalar statements before a pack
// store q[10] and then load it back as p[23] (q = p + 13 elements). The
// load runs ahead of the store, and the squash that repairs it also dooms
// the pack's srv_start, which had already opened the region; the machine
// must leave that region rather than wait for it forever.
func TestSLPRegionAfterVerticalSquash(t *testing.T) {
	p := &Array{Name: "p", Elem: 4, Len: 64, AliasGroup: 1}
	q := &Array{Name: "q", Elem: 4, Len: 64, AliasGroup: 1}
	b := &Block{Name: "squash", Stmts: []SLPStmt{
		{Dst: q, DstIdx: 10, Val: Bin{Op: OpSub, L: Ref{Arr: p, Idx: Affine(0, 5)}, R: Const{V: 7}}},
		{Dst: q, DstIdx: 11, Val: Bin{Op: OpXor, L: Ref{Arr: p, Idx: Affine(0, 23)}, R: Const{V: 7}}},
	}}
	for k := 0; k < 16; k++ {
		b.Stmts = append(b.Stmts, SLPStmt{Dst: q, DstIdx: int64(8 + k),
			Val: Bin{Op: OpAdd, L: Ref{Arr: p, Idx: Affine(0, int64(7+k))}, R: Const{V: 60}}})
	}
	im := mem.NewImage()
	p.Base = im.Alloc(4*64, 64)
	q.Base = p.Base + 4*13
	for k := int64(0); k < 64; k++ {
		im.WriteInt(p.Addr(k), 4, k*77)
	}
	checkBlock(t, b, im)
}
