// Package compiler implements the loop-level auto-vectoriser of the paper's
// §V: a small loop IR over arrays with affine and indirect subscripts, a
// Banerjee/GCD-style dependence analysis that classifies each loop as
// provably safe, provably dependent, or *unknown* (the SRV candidates), and
// code generation to the simulator ISA in three flavours — scalar, SVE-style
// vector (safe loops only), and SRV (srv_start/srv_end-bracketed, allowed
// for unknown-dependence loops).
package compiler

import (
	"fmt"
	"slices"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// Array declares one array operand of a loop nest.
// AliasGroup models pointer parameters: two distinct Arrays with the same
// non-zero AliasGroup may refer to overlapping storage (the compiler cannot
// prove otherwise), so accesses to them are treated as potentially
// dependent. At run time they genuinely alias when bound to the same Base.
type Array struct {
	Name       string
	Elem       int // element size in bytes (1, 2, 4, 8)
	Len        int // length in elements
	Base       uint64
	AliasGroup int // 0 = provably distinct object
}

// Index is a subscript: affine Scale*i + Offset, optionally routed through
// an index array (Indirect[Scale*i + Offset]).
type Index struct {
	Indirect *Array // nil for a pure affine subscript
	Scale    int64
	Offset   int64
}

// Affine builds the subscript Scale*i + Offset.
func Affine(scale, offset int64) Index { return Index{Scale: scale, Offset: offset} }

// Via builds the subscript arr[Scale*i + Offset].
func Via(arr *Array, scale, offset int64) Index {
	return Index{Indirect: arr, Scale: scale, Offset: offset}
}

func (ix Index) String() string {
	aff := fmt.Sprintf("%d*i%+d", ix.Scale, ix.Offset)
	if ix.Indirect != nil {
		return fmt.Sprintf("%s[%s]", ix.Indirect.Name, aff)
	}
	return aff
}

// BinOp is an arithmetic operator in value expressions.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpMulAdd // fused a*b+c via the third operand
	OpAnd
	OpXor
	OpShr // logical shift right by constant
)

// Expr is a value expression evaluated per iteration.
type Expr interface{ exprNode() }

// Ref reads Arr[Idx].
type Ref struct {
	Arr *Array
	Idx Index
}

// Const is an integer literal.
type Const struct{ V int64 }

// IV is the induction-variable value i.
type IV struct{}

// Bin applies Op to L and R (and C for OpMulAdd: L*R + C).
type Bin struct {
	Op   BinOp
	L, R Expr
	C    Expr // OpMulAdd only
}

func (Ref) exprNode()   {}
func (Const) exprNode() {}
func (IV) exprNode()    {}
func (Bin) exprNode()   {}

// Mask guards a statement with a per-iteration condition (if-converted to a
// predicate in vector code, a branch in scalar code — paper §III-C).
type Mask struct {
	Op   CmpOp
	L, R Expr
}

// Stmt is one (optionally guarded) store: if (Mask) Dst[Idx] = Val.
type Stmt struct {
	Dst  *Array
	Idx  Index
	Val  Expr
	Mask *Mask
}

// Loop is a countable inner loop over i in [0, Trip).
type Loop struct {
	Name string
	Trip int
	Body []Stmt
	FP   bool // arithmetic uses the FP pipes (latency class only)
	Down bool // decreasing induction variable (srv_start DOWN attribute)
	// PredTail selects SVE-style tail predication for ascending vector
	// loops: the remainder iterations run as one vector group under a
	// governing predicate (whilelo) instead of a scalar epilogue.
	// Descending loops always use the scalar epilogue.
	PredTail bool
}

// Arrays returns every distinct array the loop touches, in first-use order.
func (l *Loop) Arrays() []*Array {
	// A loop touches a handful of arrays: a linear scan of out dedupes them
	// without allocating a set.
	var out []*Array
	add := func(a *Array) {
		if a != nil && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	var walkIdx func(Index)
	var walkExpr func(Expr)
	walkIdx = func(ix Index) { add(ix.Indirect) }
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case Ref:
			add(x.Arr)
			walkIdx(x.Idx)
		case Bin:
			walkExpr(x.L)
			walkExpr(x.R)
			if x.C != nil {
				walkExpr(x.C)
			}
		}
	}
	for _, s := range l.Body {
		if s.Mask != nil {
			walkExpr(s.Mask.L)
			walkExpr(s.Mask.R)
		}
		walkExpr(s.Val)
		add(s.Dst)
		walkIdx(s.Idx)
	}
	return out
}

// access describes one memory access of the loop body for analysis.
type access struct {
	arr     *Array
	idx     Index
	isStore bool
	pos     int // statement position
}

// accesses enumerates the body's memory accesses in program order, including
// reads of index arrays.
func (l *Loop) accesses() []access {
	var out []access
	var walkExpr func(e Expr, pos int)
	walkIdx := func(ix Index, pos int) {
		if ix.Indirect != nil {
			out = append(out, access{arr: ix.Indirect, idx: Affine(ix.Scale, ix.Offset), pos: pos})
		}
	}
	walkExpr = func(e Expr, pos int) {
		switch x := e.(type) {
		case Ref:
			walkIdx(x.Idx, pos)
			out = append(out, access{arr: x.Arr, idx: x.Idx, pos: pos})
		case Bin:
			walkExpr(x.L, pos)
			walkExpr(x.R, pos)
			if x.C != nil {
				walkExpr(x.C, pos)
			}
		}
	}
	for pos, s := range l.Body {
		if s.Mask != nil {
			walkExpr(s.Mask.L, pos)
			walkExpr(s.Mask.R, pos)
		}
		walkExpr(s.Val, pos)
		walkIdx(s.Idx, pos)
		out = append(out, access{arr: s.Dst, idx: s.Idx, isStore: true, pos: pos})
	}
	return out
}

// MemAccessCount returns the number of static memory accesses in the body
// and how many of them are gathers/scatters (lane-indexed), for Fig 10.
func (l *Loop) MemAccessCount() (total, gatherScatter int) {
	for _, a := range l.accesses() {
		total++
		if a.idx.Indirect != nil || (a.idx.Scale != 1 && a.idx.Scale != 0) {
			gatherScatter++
		}
	}
	return
}

// Bind allocates every array of the loop in the image and returns them.
func (l *Loop) Bind(im *mem.Image) []*Array {
	arrs := l.Arrays()
	for _, a := range arrs {
		if a.Base == 0 {
			a.Base = im.Alloc(a.Elem*a.Len, 64)
		}
	}
	return arrs
}

// Addr returns the element address of arr[k].
func (a *Array) Addr(k int64) uint64 {
	return a.Base + uint64(k*int64(a.Elem))
}

// Guard against accidental misuse in workloads.
var _ = isa.NumLanes
