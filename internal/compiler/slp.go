package compiler

import (
	"fmt"
	"strings"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// This file implements the non-loop use of SRV that paper §III-A points at:
// "SRV could also be used to vectorise non-loop code with unknown
// dependences, through the SLP algorithm" (superword-level parallelism,
// Larsen & Amarasinghe). The packer groups runs of isomorphic straight-line
// statements — same expression shape over the same arrays, constant
// subscripts — into packs of up to 16 lanes and emits ONE SRV region per
// pack: the statements execute as vector lanes, and any memory dependence
// between them (unknown to the compiler when the arrays may alias) is
// caught and repaired by selective replay, lane k being statement k.

// SLPStmt is one straight-line statement Dst[DstIdx] = Val, where every Ref
// inside Val uses a constant subscript (Index with Scale == 0). An optional
// Guard makes the store conditional; guarded statements pack with
// same-shaped guarded statements and the comparison is if-converted into
// the pack's governing predicate.
type SLPStmt struct {
	Dst    *Array
	DstIdx int64
	Val    Expr
	Guard  *Mask
}

// Block is a straight-line code block.
type Block struct {
	Name  string
	Stmts []SLPStmt
}

// Arrays returns the distinct arrays the block touches.
func (b *Block) Arrays() []*Array {
	var out []*Array
	ref := func(e Expr) {
		if x, ok := e.(Ref); ok {
			out = addArray(out, x.Arr)
		}
	}
	for _, s := range b.Stmts {
		walkLeaves(s.Val, ref)
		if s.Guard != nil {
			walkLeaves(s.Guard.L, ref)
			walkLeaves(s.Guard.R, ref)
		}
		out = addArray(out, s.Dst)
	}
	return out
}

// Bind allocates the block's arrays. Arrays sharing a non-zero AliasGroup
// AND a pre-set identical Base model genuinely aliasing pointers.
func (b *Block) Bind(im *mem.Image) []*Array { return bind(b.Arrays(), im) }

// signature returns the isomorphism class of a statement: expression shape
// and the identity of every array touched, in traversal order. Statements
// with equal signatures can become lanes of one pack.
func (s SLPStmt) signature() string {
	var sb strings.Builder
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Const:
			sb.WriteString("c;")
		case IV:
			sb.WriteString("iv;")
		case Ref:
			if x.Idx.Indirect != nil || x.Idx.Scale != 0 {
				sb.WriteString("BAD;")
				return
			}
			fmt.Fprintf(&sb, "r%p;", x.Arr)
		case Bin:
			fmt.Fprintf(&sb, "b%d(", x.Op)
			walk(x.L)
			walk(x.R)
			if x.C != nil {
				walk(x.C)
			}
			sb.WriteString(");")
		}
	}
	walk(s.Val)
	if s.Guard != nil {
		fmt.Fprintf(&sb, "g%d(", s.Guard.Op)
		walk(s.Guard.L)
		walk(s.Guard.R)
		sb.WriteString(");")
	}
	fmt.Fprintf(&sb, "->%p", s.Dst)
	return sb.String()
}

// Pack is one group of isomorphic statements vectorised together.
type Pack struct {
	Stmts []SLPStmt // up to isa.NumLanes; lane k = statement k
}

// PackBlock greedily groups maximal runs of consecutive isomorphic
// statements (no reordering, preserving program order between packs).
func PackBlock(b *Block) []Pack {
	var packs []Pack
	i := 0
	for i < len(b.Stmts) {
		sig := b.Stmts[i].signature()
		j := i + 1
		for j < len(b.Stmts) && j-i < isa.NumLanes &&
			!strings.Contains(sig, "BAD") && b.Stmts[j].signature() == sig {
			j++
		}
		packs = append(packs, Pack{Stmts: b.Stmts[i:j]})
		i = j
	}
	return packs
}

// CompileBlock lowers the block. ModeScalar executes the statements one by
// one; ModeSRV vectorises each multi-statement pack inside an SRV region,
// materialising each operand position's constant subscripts as a
// compiler-generated index table in memory (the analogue of SLP's literal
// vectors). ModeSVE is rejected: the packs exist precisely because the
// arrays may alias.
func CompileBlock(b *Block, im *mem.Image, mode Mode) (*isa.Program, error) {
	if mode == ModeSVE {
		return nil, fmt.Errorf("compiler: block %s packs may-alias statements; SVE-style packing is illegal (use SRV)", b.Name)
	}
	b.Bind(im)
	bld := isa.NewBuilder()
	g := &slpGen{b: bld, im: im}
	if mode == ModeScalar {
		for _, s := range b.Stmts {
			g.scalarStmt(s)
		}
		bld.Halt()
		return bld.Build()
	}
	for pi, pack := range PackBlock(b) {
		if len(pack.Stmts) == 1 {
			g.scalarStmt(pack.Stmts[0])
			continue
		}
		g.vectorPack(fmt.Sprintf("%s_p%d", b.Name, pi), pack)
	}
	bld.Halt()
	return bld.Build()
}

// EvalBlock executes the block sequentially over the image (reference).
func EvalBlock(b *Block, im *mem.Image) {
	for _, s := range b.Stmts {
		if s.Guard != nil && !s.Guard.holds(0, im) {
			continue
		}
		v := evalExpr(s.Val, 0, im)
		im.WriteInt(s.Dst.Addr(s.DstIdx), s.Dst.Elem, v)
	}
}

// slpGen is a tiny code generator for blocks (registers are plentiful:
// everything is reloaded per statement/pack).
type slpGen struct {
	b  *isa.Builder
	im *mem.Image

	sTmp int
	vTmp int
}

func (g *slpGen) stmp() int {
	g.sTmp++
	if g.sTmp >= isa.NumSclRegs {
		panic("compiler: slp scalar registers exhausted")
	}
	return g.sTmp
}

func (g *slpGen) vtmp() int {
	r := g.vTmp
	g.vTmp++
	if r >= isa.NumVecRegs {
		panic("compiler: slp vector registers exhausted")
	}
	return r
}

// scalarStmt emits one statement's scalar code; a guard becomes a branch
// over the store.
func (g *slpGen) scalarStmt(s SLPStmt) {
	g.sTmp = 0
	skip := ""
	if s.Guard != nil {
		l := g.scalarExpr(s.Guard.L)
		r := g.scalarExpr(s.Guard.R)
		skip = fmt.Sprintf("slpskip%d", g.b.Len())
		branchUnless(g.b, s.Guard.Op, l, r, skip)
	}
	v := g.scalarExpr(s.Val)
	addr := g.stmp()
	g.b.MovI(addr, int64(s.Dst.Addr(s.DstIdx)))
	g.b.Store(addr, 0, s.Dst.Elem, v)
	if skip != "" {
		g.b.Label(skip)
	}
}

func (g *slpGen) scalarExpr(e Expr) int {
	switch x := e.(type) {
	case Const:
		t := g.stmp()
		g.b.MovI(t, x.V)
		return t
	case IV:
		t := g.stmp()
		g.b.MovI(t, 0)
		return t
	case Ref:
		t := g.stmp()
		g.b.MovI(t, int64(x.Arr.Addr(x.Idx.Offset)))
		g.b.Load(t, t, 0, x.Arr.Elem)
		return t
	case Bin:
		l := g.scalarExpr(x.L)
		r := g.scalarExpr(x.R)
		t := g.stmp()
		switch x.Op {
		case OpAdd:
			g.b.Add(t, l, r)
		case OpSub:
			g.b.Sub(t, l, r)
		case OpMul:
			g.b.Mul(t, l, r)
		case OpMulAdd:
			g.b.Mul(t, l, r)
			c := g.scalarExpr(x.C)
			g.b.Add(t, t, c)
		case OpAnd:
			g.b.And(t, l, r)
		case OpXor:
			g.b.Xor(t, l, r)
		default:
			panic("compiler: slp operator unsupported")
		}
		return t
	}
	panic("compiler: slp expression unsupported")
}

// vectorPack emits one SRV region executing the pack's statements as lanes.
func (g *slpGen) vectorPack(name string, p Pack) {
	lanes := len(p.Stmts)
	g.sTmp, g.vTmp = 0, 0

	// Lane predicate for partial packs: lanes [0, lanes).
	pg := isa.NoPred
	if lanes < isa.NumLanes {
		zero := g.stmp()
		limit := g.stmp()
		g.b.MovI(zero, 0)
		g.b.MovI(limit, int64(lanes))
		iv := g.vtmp()
		lim := g.vtmp()
		g.b.VIota(iv, zero)
		g.b.VSplat(lim, limit)
		g.b.VCmpLT(0, iv, lim, isa.NoPred)
		pg = 0
	}

	g.b.SRVStart(isa.DirUp)
	// If-convert the pack's guards: each lane's comparison result ANDs into
	// the governing predicate (p1 holds the guard, p0 the partial-pack
	// lanes when present).
	if gu := p.Stmts[0].Guard; gu != nil {
		gl := g.vecExpr(name+"_gl", p, gu.L, func(s SLPStmt) Expr { return s.Guard.L }, pg)
		gr := g.vecExpr(name+"_gr", p, gu.R, func(s SLPStmt) Expr { return s.Guard.R }, pg)
		vcmp(g.b, gu.Op, 1, gl, gr)
		if pg == isa.NoPred {
			pg = 1
		} else {
			g.b.PAnd(0, 0, 1)
		}
	}
	val := g.vecExpr(name, p, p.Stmts[0].Val, func(s SLPStmt) Expr { return s.Val }, pg)
	// Scatter through the destination index table.
	dstIdx := g.indexTable(name+"_dst", p, func(s SLPStmt) int64 { return s.DstIdx })
	base := g.stmp()
	g.b.MovI(base, int64(p.Stmts[0].Dst.Base))
	g.b.VScatter(base, dstIdx, val, 0, p.Stmts[0].Dst.Elem, pg)
	g.b.SRVEnd()
}

// indexTable materialises a per-lane constant table in memory and loads it.
func (g *slpGen) indexTable(name string, p Pack, f func(SLPStmt) int64) int {
	base := g.im.Alloc(isa.NumLanes*4, 64)
	for lane, s := range p.Stmts {
		g.im.WriteInt(base+uint64(lane*4), 4, f(s))
	}
	r := g.stmp()
	g.b.MovI(r, int64(base))
	v := g.vtmp()
	g.b.VLoad(v, r, 0, 4, isa.NoPred)
	return v
}

// vecExpr walks the pack leader's expression tree; at each Ref it gathers
// using a per-lane index table built from the corresponding Ref of every
// statement in the pack (isomorphism guarantees the same tree positions).
func (g *slpGen) vecExpr(name string, p Pack, leader Expr, sel func(SLPStmt) Expr, pg int) int {
	// Walk leader and per-statement expressions in lockstep via positional
	// paths.
	var walk func(path string, leaf Expr) int
	walk = func(path string, leaf Expr) int {
		switch x := leaf.(type) {
		case Const:
			s := g.stmp()
			t := g.vtmp()
			g.b.MovI(s, x.V)
			g.b.VSplat(t, s)
			return t
		case IV:
			s := g.stmp()
			t := g.vtmp()
			g.b.MovI(s, 0)
			g.b.VSplat(t, s)
			return t
		case Ref:
			idx := g.indexTable(fmt.Sprintf("%s_%s", name, path), p, func(s SLPStmt) int64 {
				return refAt(sel(s), path).Idx.Offset
			})
			base := g.stmp()
			t := g.vtmp()
			g.b.MovI(base, int64(x.Arr.Base))
			g.b.VGather(t, base, idx, 0, x.Arr.Elem, pg)
			return t
		case Bin:
			l := walk(path+"L", x.L)
			r := walk(path+"R", x.R)
			t := g.vtmp()
			switch x.Op {
			case OpAdd:
				g.b.VAdd(t, l, r, pg)
			case OpSub:
				g.b.VSub(t, l, r, pg)
			case OpMul:
				g.b.VMul(t, l, r, pg)
			case OpMulAdd:
				c := walk(path+"C", x.C)
				g.b.VMov(t, c, isa.NoPred)
				g.b.VMulAdd(t, l, r, pg)
			case OpAnd:
				g.b.VAnd(t, l, r, pg)
			case OpXor:
				g.b.VXor(t, l, r, pg)
			default:
				panic("compiler: slp operator unsupported")
			}
			return t
		}
		panic("compiler: slp expression unsupported")
	}
	return walk("", leader)
}

// refAt returns the Ref at a positional path within an expression tree.
func refAt(e Expr, path string) Ref {
	cur := e
	for _, c := range path {
		b, ok := cur.(Bin)
		if !ok {
			panic("compiler: slp path mismatch")
		}
		switch c {
		case 'L':
			cur = b.L
		case 'R':
			cur = b.R
		case 'C':
			cur = b.C
		}
	}
	r, ok := cur.(Ref)
	if !ok {
		panic("compiler: slp path does not end at a Ref")
	}
	return r
}
