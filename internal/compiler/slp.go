package compiler

import (
	"fmt"
	"slices"
	"strings"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// This file implements the non-loop use of SRV that paper §III-A points at:
// "SRV could also be used to vectorise non-loop code with unknown
// dependences, through the SLP algorithm" (superword-level parallelism,
// Larsen & Amarasinghe). The packer groups runs of isomorphic straight-line
// statements — same expression shape over the same arrays, constant
// subscripts — into packs of up to 16 lanes. A pack is exactly what the loop
// generator emits for one vector group, so it compiles as a loop of
// len(pack) iterations whose lane k runs statement k, through index tables
// of the statements' subscripts: ONE SRV region per pack, in which any
// memory dependence between the statements (unknown to the compiler when
// the arrays may alias) is caught and repaired by selective replay. The
// block has no code generator of its own.

// SLPStmt is one straight-line statement Dst[DstIdx] = Val. It executes
// with the induction variable 0. A statement packs only when every Ref in
// it uses a constant subscript (Index with Scale == 0); any other subscript,
// a Via one included, leaves it scalar. An optional Guard makes the store
// conditional; guarded statements pack with same-shaped guarded statements
// and the comparison is if-converted into the pack's governing predicate.
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
			out = addArray(addArray(out, x.Arr), x.Idx.Indirect)
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
			if c, ok := x.R.(Const); ok && x.Op == OpShr {
				// The generator shifts by an immediate, so every lane of a
				// pack must shift by the same amount.
				fmt.Fprintf(&sb, "%d;", c.V)
			}
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

// CompileBlock lowers the block through the loop generator, as a sequence
// of loops compiled by CompileProgram. In ModeSRV each multi-statement pack
// becomes a one-group SRV loop (packLoop) whose lane k runs statement k;
// the remaining statements, and in ModeScalar every statement, run as
// single-iteration scalar loops (scalarLoops). ModeSVE is rejected: the
// packs exist precisely because the arrays may alias.
func CompileBlock(b *Block, im *mem.Image, mode Mode) (*isa.Program, error) {
	if mode == ModeSVE {
		return nil, fmt.Errorf("compiler: block %s packs may-alias statements; SVE-style packing is illegal (use SRV)", b.Name)
	}
	b.Bind(im)
	var phases []Phase
	var run []SLPStmt
	for pi, pack := range PackBlock(b) {
		if mode == ModeScalar || len(pack.Stmts) == 1 {
			run = append(run, pack.Stmts...)
			continue
		}
		phases = scalarLoops(phases, b.Name, run)
		run = nil
		l := packLoop(fmt.Sprintf("%s_p%d", b.Name, pi), pack, im)
		phases = append(phases, Phase{Loop: l, Mode: ModeSRV})
	}
	return CompileProgram(scalarLoops(phases, b.Name, run), im)
}

// scalarLoops appends a run of statements to phases as single-iteration
// scalar loops (the induction variable is 0, as in EvalBlock), starting a
// new loop wherever one more statement would overrun the generator's
// fixed-register budget.
func scalarLoops(phases []Phase, name string, run []SLPStmt) []Phase {
	var l *Loop
	for _, s := range run {
		st := Stmt{Dst: s.Dst, Idx: Affine(0, s.DstIdx), Val: s.Val, Mask: s.Guard}
		if l != nil {
			l.Body = append(l.Body, st)
			if _, _, _, n := fixedRegs(l); n <= maxFixed {
				continue
			}
			l.Body = l.Body[:len(l.Body)-1]
		}
		l = &Loop{Name: fmt.Sprintf("%s_s%d", name, len(phases)), Trip: 1, Body: []Stmt{st}}
		phases = append(phases, Phase{Loop: l, Mode: ModeScalar})
	}
	return phases
}

// packLoop turns a pack into a loop of len(pack) iterations, one predicated
// vector group, whose single statement is the leader's with every operand
// that differs between lanes read from a table in im (the analogue of SLP's
// literal vectors): each Ref position gathers through a 16-entry index
// table of the statements' constant subscripts there, the destination
// scatters through one, and a constant that differs between statements
// loads from a table of its values. The induction variable, 0 in every
// statement, becomes the constant 0.
func packLoop(name string, p Pack, im *mem.Image) *Loop {
	table := func(tag string, elem int, val func(SLPStmt) int64) *Array {
		t := &Array{Name: name + "_" + tag, Elem: elem, Len: isa.NumLanes,
			Base: im.Alloc(isa.NumLanes*elem, 64)}
		for lane, s := range p.Stmts {
			im.WriteInt(t.Addr(int64(lane)), elem, val(s))
		}
		return t
	}
	var lanes func(e Expr, role, path string, sel func(SLPStmt) Expr) Expr
	lanes = func(e Expr, role, path string, sel func(SLPStmt) Expr) Expr {
		at := func(s SLPStmt) Expr { return leafAt(sel(s), path) }
		switch x := e.(type) {
		case IV:
			return Const{V: 0}
		case Const:
			val := func(s SLPStmt) int64 { return at(s).(Const).V }
			if !slices.ContainsFunc(p.Stmts, func(s SLPStmt) bool { return val(s) != x.V }) {
				return x
			}
			return Ref{Arr: table(role+path, 8, val), Idx: Affine(1, 0)}
		case Ref:
			off := func(s SLPStmt) int64 { return at(s).(Ref).Idx.Offset }
			return Ref{Arr: x.Arr, Idx: Via(table(role+path, 4, off), 1, 0)}
		case Bin:
			x.L = lanes(x.L, role, path+"L", sel)
			x.R = lanes(x.R, role, path+"R", sel)
			if x.C != nil {
				x.C = lanes(x.C, role, path+"C", sel)
			}
			return x
		}
		panic("compiler: slp expression unsupported")
	}
	lead := p.Stmts[0]
	st := Stmt{
		Dst: lead.Dst,
		Idx: Via(table("d", 4, func(s SLPStmt) int64 { return s.DstIdx }), 1, 0),
		Val: lanes(lead.Val, "v", "", func(s SLPStmt) Expr { return s.Val }),
	}
	if g := lead.Guard; g != nil {
		st.Mask = &Mask{Op: g.Op,
			L: lanes(g.L, "l", "", func(s SLPStmt) Expr { return s.Guard.L }),
			R: lanes(g.R, "r", "", func(s SLPStmt) Expr { return s.Guard.R }),
		}
	}
	return &Loop{Name: name, Trip: len(p.Stmts), PredTail: true, Body: []Stmt{st}}
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

// leafAt returns the leaf at a positional path within an expression tree.
func leafAt(e Expr, path string) Expr {
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
	return cur
}
