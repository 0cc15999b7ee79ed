package compiler

import "srvsim/internal/mem"

// Eval executes the loop directly over the memory image with strict
// sequential semantics: the reference model every compiled variant must
// match.
func Eval(l *Loop, im *mem.Image) {
	for n := 0; n < l.Trip; n++ {
		EvalIter(l, l.iteration(n), im)
	}
}

// iteration returns the induction-variable value of the loop's n-th
// iteration in sequential order: n counting up, Trip-1-n counting down.
func (l *Loop) iteration(n int) int {
	if l.Down {
		return l.Trip - 1 - n
	}
	return n
}

// EvalIter executes exactly one iteration of the loop against the image.
func EvalIter(l *Loop, i int, im *mem.Image) {
	iv := int64(i)
	for _, s := range l.Body {
		if s.Mask != nil && !s.Mask.holds(iv, im) {
			continue
		}
		v := evalExpr(s.Val, iv, im)
		im.WriteInt(evalAddr(s.Dst, s.Idx, iv, im), s.Dst.Elem, v)
	}
}

// holds evaluates the guard for induction value iv. An unknown comparison
// never holds.
func (m *Mask) holds(iv int64, im *mem.Image) bool {
	l, r := evalExpr(m.L, iv, im), evalExpr(m.R, iv, im)
	switch m.Op {
	case CmpLT:
		return l < r
	case CmpGE:
		return l >= r
	case CmpEQ:
		return l == r
	case CmpNE:
		return l != r
	}
	return false
}

func evalIdx(ix Index, iv int64, im *mem.Image) int64 {
	k := ix.Scale*iv + ix.Offset
	if ix.Indirect != nil {
		k = im.ReadInt(ix.Indirect.Addr(k), ix.Indirect.Elem)
	}
	return k
}

func evalAddr(arr *Array, ix Index, iv int64, im *mem.Image) uint64 {
	return arr.Addr(evalIdx(ix, iv, im))
}

func evalExpr(e Expr, iv int64, im *mem.Image) int64 {
	switch x := e.(type) {
	case Const:
		return x.V
	case IV:
		return iv
	case Ref:
		return im.ReadInt(evalAddr(x.Arr, x.Idx, iv, im), x.Arr.Elem)
	case Bin:
		l := evalExpr(x.L, iv, im)
		r := evalExpr(x.R, iv, im)
		switch x.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		case OpMulAdd:
			return l*r + evalExpr(x.C, iv, im)
		case OpAnd:
			return l & r
		case OpXor:
			return l ^ r
		case OpShr:
			return int64(uint64(l) >> uint(r))
		}
	}
	panic("compiler: unknown expression in Eval")
}
