package compiler

import (
	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// accessRec is one dynamic memory access of a loop iteration.
type accessRec struct {
	addr    uint64
	size    int
	isStore bool
	pos     int // statement position
}

// iterAccesses returns the memory accesses iteration i would perform against
// the current memory state, without executing the iteration. Guarded
// statements whose mask fails contribute only the guard's reads. Index-array
// reads are included (they are real loads).
func iterAccesses(l *Loop, i int, im *mem.Image) []accessRec {
	iv := int64(i)
	var out []accessRec
	pos := 0
	idx := func(ix Index) {
		if ix.Indirect != nil {
			out = append(out, accessRec{addr: ix.Indirect.Addr(ix.Scale*iv + ix.Offset), size: ix.Indirect.Elem, pos: pos})
		}
	}
	ref := func(e Expr) {
		if x, ok := e.(Ref); ok {
			idx(x.Idx)
			out = append(out, accessRec{addr: evalAddr(x.Arr, x.Idx, iv, im), size: x.Arr.Elem, pos: pos})
		}
	}
	for p, s := range l.Body {
		pos = p
		if s.Mask != nil {
			walkLeaves(s.Mask.L, ref)
			walkLeaves(s.Mask.R, ref)
			if !s.Mask.holds(iv, im) {
				continue
			}
		}
		walkLeaves(s.Val, ref)
		idx(s.Idx)
		out = append(out, accessRec{addr: evalAddr(s.Dst, s.Idx, iv, im), size: s.Dst.Elem, isStore: true, pos: pos})
	}
	return out
}

// overlaps reports byte-range overlap of two access records.
func (a accessRec) overlaps(b accessRec) bool {
	return a.addr < b.addr+uint64(b.size) && b.addr < a.addr+uint64(a.size)
}

// AccessSummary describes one static memory access for alias-pair counting.
type AccessSummary struct {
	Arr     *Array
	IsStore bool
	Unknown bool // subscript the compiler cannot disambiguate (indirect)
}

// AccessSummaries lists the loop's static accesses with their analysability.
func (l *Loop) AccessSummaries() []AccessSummary {
	var out []AccessSummary
	for _, a := range l.accesses() {
		out = append(out, AccessSummary{Arr: a.arr, IsStore: a.isStore, Unknown: a.idx.Indirect != nil})
	}
	return out
}

// trueRAWBetween reports whether a store of iteration earlier conflicts with
// a read of iteration later in a way statement-at-a-time vector execution
// would violate: the load's statement position must not be after the
// store's, otherwise the vector code executes the store statement first and
// the later lane reads fresh data anyway. WAR and WAW pairs are excluded —
// vector execution and scatter ordering resolve them naturally (the §II
// limit study's store-buffering assumption). Both access lists must come
// from the same pre-group memory state.
func trueRAWBetween(earlier, later []accessRec) bool {
	for _, st := range earlier {
		if !st.isStore {
			continue
		}
		for _, ld := range later {
			if !ld.isStore && ld.pos <= st.pos && st.overlaps(ld) {
				return true
			}
		}
	}
	return false
}

// EmulateGroups executes the loop over the image (which is consumed) the
// way an ideal 16-wide vectorisation would, for the §II limit study and the
// FlexVec comparison. Iterations run in sequential order (iteration); each
// group of isa.NumLanes of them splits into maximal prefixes of lanes free
// of true RAW dependences (trueRAWBetween, against the pre-group memory
// state): lane k starts a new subgroup when it reads what an earlier lane
// of the current subgroup stores. group receives each group's subgroup
// count before the group executes. The iterations past the last full group
// execute one by one; their number is returned.
func EmulateGroups(l *Loop, im *mem.Image, group func(subgroups int64)) (remainder int) {
	main := l.Trip - l.Trip%isa.NumLanes
	accs := make([][]accessRec, isa.NumLanes)
	for g := 0; g < main; g += isa.NumLanes {
		for lane := range accs {
			accs[lane] = iterAccesses(l, l.iteration(g+lane), im)
		}
		start, sub := 0, int64(1)
		for i := 1; i < isa.NumLanes; i++ {
			for j := start; j < i; j++ {
				if trueRAWBetween(accs[j], accs[i]) {
					sub++
					start = i
					break
				}
			}
		}
		group(sub)
		for lane := range accs {
			EvalIter(l, l.iteration(g+lane), im)
		}
	}
	for n := main; n < l.Trip; n++ {
		EvalIter(l, l.iteration(n), im)
	}
	return l.Trip - main
}
