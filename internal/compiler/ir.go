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
// The order fixes the arrays' base addresses (Bind), so it is part of the
// simulated behaviour.
func (l *Loop) Arrays() []*Array {
	var out []*Array
	ref := func(e Expr) {
		if x, ok := e.(Ref); ok {
			out = addArray(addArray(out, x.Arr), x.Idx.Indirect)
		}
	}
	for _, s := range l.Body {
		if s.Mask != nil {
			walkLeaves(s.Mask.L, ref)
			walkLeaves(s.Mask.R, ref)
		}
		walkLeaves(s.Val, ref)
		out = addArray(addArray(out, s.Dst), s.Idx.Indirect)
	}
	return out
}

// addArray appends a to out unless it is nil or already there. A loop
// touches a handful of arrays, so a linear scan dedupes them without
// allocating a set.
func addArray(out []*Array, a *Array) []*Array {
	if a == nil || slices.Contains(out, a) {
		return out
	}
	return append(out, a)
}

// walkLeaves calls visit on every leaf (Ref, Const or IV) of e, left to
// right: L, then R, then C of an OpMulAdd.
func walkLeaves(e Expr, visit func(Expr)) {
	b, ok := e.(Bin)
	if !ok {
		visit(e)
		return
	}
	walkLeaves(b.L, visit)
	walkLeaves(b.R, visit)
	if b.C != nil {
		walkLeaves(b.C, visit)
	}
}

// access describes one memory access of the loop body for analysis.
type access struct {
	arr     *Array
	idx     Index
	isStore bool
	pos     int // statement position
}

// accesses enumerates the body's memory accesses in program order, including
// reads of index arrays (each just before the access it subscripts).
func (l *Loop) accesses() []access {
	var out []access
	pos := 0
	idx := func(ix Index) {
		if ix.Indirect != nil {
			out = append(out, access{arr: ix.Indirect, idx: Affine(ix.Scale, ix.Offset), pos: pos})
		}
	}
	ref := func(e Expr) {
		if x, ok := e.(Ref); ok {
			idx(x.Idx)
			out = append(out, access{arr: x.Arr, idx: x.Idx, pos: pos})
		}
	}
	for p, s := range l.Body {
		pos = p
		if s.Mask != nil {
			walkLeaves(s.Mask.L, ref)
			walkLeaves(s.Mask.R, ref)
		}
		walkLeaves(s.Val, ref)
		idx(s.Idx)
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
func (l *Loop) Bind(im *mem.Image) []*Array { return bind(l.Arrays(), im) }

// bind allocates each array that has no base yet, in order.
func bind(arrs []*Array, im *mem.Image) []*Array {
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
