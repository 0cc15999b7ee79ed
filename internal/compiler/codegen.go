package compiler

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// Mode selects the code-generation strategy.
type Mode int

const (
	// ModeScalar: one element per iteration, conventional scalar code.
	ModeScalar Mode = iota
	// ModeSVE: 16-lane vector code without speculation; legal only for
	// loops the dependence analysis proves safe.
	ModeSVE
	// ModeSRV: 16-lane vector code bracketed by srv_start/srv_end; legal
	// for unknown-dependence loops (the paper's contribution).
	ModeSRV
)

func (m Mode) String() string {
	switch m {
	case ModeSVE:
		return "sve"
	case ModeSRV:
		return "srv"
	default:
		return "scalar"
	}
}

// CmpOp is the comparison for an if-converted statement guard.
type CmpOp int

const (
	CmpLT CmpOp = iota
	CmpGE
	CmpEQ
	CmpNE
)

// Compiled is the output of Compile.
type Compiled struct {
	Prog   *isa.Program
	Mode   Mode
	Report DepReport
	Loop   *Loop
}

// Compile lowers the loop to a full program (setup + loop + halt) in the
// requested mode. Arrays must already be bound (Loop.Bind). ModeSVE is
// rejected unless the loop is provably safe; ModeSRV is rejected for loops
// with a proven short-distance dependence (the compiler would never pick
// them — replay would serialise every group).
func Compile(l *Loop, im *mem.Image, mode Mode) (*Compiled, error) {
	rep := Analyse(l)
	if err := legal(l, rep, mode); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	l.Bind(im)
	b := isa.NewBuilder()
	g := &gen{l: l, mode: mode, b: b}
	if err := g.run(); err != nil {
		return nil, err
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Compiled{Prog: prog, Mode: mode, Report: rep, Loop: l}, nil
}

// Phase is one loop of a multi-phase program.
type Phase struct {
	Loop *Loop
	Mode Mode
}

// CompileProgram lowers several loops into a single program executed in
// sequence — a synthetic whole application (scalar phases interleaved with
// SRV loops). Every loop is validated under the same rules as Compile.
func CompileProgram(phases []Phase, im *mem.Image) (*isa.Program, error) {
	b := isa.NewBuilder()
	for i, ph := range phases {
		if err := legal(ph.Loop, Analyse(ph.Loop), ph.Mode); err != nil {
			return nil, fmt.Errorf("compiler: phase %d: %w", i, err)
		}
		ph.Loop.Bind(im)
		g := &gen{l: ph.Loop, mode: ph.Mode, b: b, prefix: fmt.Sprintf("P%d_", i)}
		if err := g.run(); err != nil {
			return nil, err
		}
	}
	b.Halt()
	return b.Build()
}

// legal applies the mode's legality rule to the loop's dependence report:
// SVE needs a provably safe loop, and SRV refuses a provably dependent one
// (the compiler would never pick it — replay would serialise every group).
func legal(l *Loop, rep DepReport, mode Mode) error {
	switch {
	case mode == ModeSVE && rep.Verdict != VerdictSafe:
		return fmt.Errorf("loop %s not provably safe (%s); SVE vectorisation illegal", l.Name, rep.Reason)
	case mode == ModeSRV && rep.Verdict == VerdictDependent:
		return fmt.Errorf("loop %s has a proven dependence (%s); SRV unprofitable", l.Name, rep.Reason)
	}
	return nil
}

// MustCompile is Compile that panics on error (workload tables).
func MustCompile(l *Loop, im *mem.Image, mode Mode) *Compiled {
	c, err := Compile(l, im, mode)
	if err != nil {
		panic(err)
	}
	return c
}

// Register conventions:
//
//	s0      induction variable i
//	s1      vector-loop bound, then full trip bound
//	s2+     array bases, moving pointers, hoisted constants
//	s28+    per-statement scalar temporaries
//	v0+     per-statement vector temporaries
//	p0      statement guard predicate
type gen struct {
	l      *Loop
	mode   Mode
	b      *isa.Builder
	prefix string // label prefix (unique per loop in multi-phase programs)

	nextFixed int // next fixed scalar register (bases, consts, pointers)
	base      map[*Array]int
	ptr       map[*Array]int // moving pointer: &arr[i] (scale-1 streams)
	constReg  map[int64]int
	vconstReg map[int64]int // loop-invariant splat vectors, hoisted
	vconstTop int           // vector registers allocated from the top down

	tmpBase int // first scalar temp register (after fixed allocation)
	sTmp    int // scalar temp cursor (resets per statement)
	vTmp    int // vector temp cursor
}

const (
	regI       = 0
	regBound   = 1
	firstFixed = 2
	// maxFixed is the most fixed scalar registers a loop may take, leaving
	// the rest as per-statement temporaries.
	maxFixed = isa.NumSclRegs - 6
)

// fixedRegs lists what gen.run keeps in fixed scalar registers for the
// whole loop — base registers, moving pointers and hoisted constants — and
// counts the registers they take together with the induction variable and
// the bound.
func fixedRegs(l *Loop) (bases, ptrs []*Array, consts []int64, n int) {
	bases, ptrs, consts = needBases(l), needPointers(l), collectConsts(l)
	return bases, ptrs, consts, firstFixed + len(bases) + len(ptrs) + len(consts)
}

func (g *gen) run() error {
	bases, ptrs, consts, n := fixedRegs(g.l)
	if n > maxFixed {
		return fmt.Errorf("compiler: loop %s needs %d fixed scalar registers, leaving too few temporaries", g.l.Name, n)
	}
	g.base = make(map[*Array]int)
	g.ptr = make(map[*Array]int)
	g.constReg = make(map[int64]int)
	g.vconstReg = make(map[int64]int)
	g.vconstTop = isa.NumVecRegs
	g.nextFixed = firstFixed

	// Base registers only for arrays addressed through them (gather and
	// scatter targets, non-unit or invariant strides); unit-stride streams
	// use a moving pointer instead, halving scalar register pressure.
	for _, a := range bases {
		r := g.alloc()
		g.base[a] = r
		g.b.MovI(r, int64(a.Base))
	}
	for _, a := range ptrs {
		r := g.alloc()
		g.ptr[a] = r
		g.b.MovI(r, int64(a.Base))
	}
	// Hoist constants.
	for _, c := range consts {
		r := g.alloc()
		g.constReg[c] = r
		g.b.MovI(r, c)
	}
	g.tmpBase = g.nextFixed

	if g.mode == ModeScalar {
		if g.l.Down {
			g.scalarLoopDesc(g.l.Trip - 1)
		} else {
			g.scalarLoop(0, g.l.Trip)
		}
		return nil
	}

	// Hoist loop-invariant splats out of the vector loop (sorted for
	// deterministic code emission).
	slices.Sort(consts)
	for _, c := range consts {
		g.vconstTop--
		g.vconstReg[c] = g.vconstTop
		g.b.VSplat(g.vconstTop, g.constReg[c])
	}

	main := g.l.Trip - g.l.Trip%isa.NumLanes
	rem := g.l.Trip - main
	if g.l.Down {
		// Descending loop: the vector groups cover the HIGHEST iterations
		// first (iteration order Trip-1 .. rem), then a scalar epilogue
		// finishes rem-1 .. 0. regI holds the group's first (highest)
		// iteration; moving pointers sit at the footprint's LOWEST element,
		// and the DOWN region attribute reverses lane attribution.
		if main > 0 {
			g.b.MovI(regI, int64(g.l.Trip-1))
			g.b.MovI(regBound, int64(rem+isa.NumLanes-1))
			for _, a := range g.sortedPtrs() {
				g.b.MovI(g.ptr[a], int64(a.Addr(int64(g.l.Trip-isa.NumLanes))))
			}
			g.b.Label(g.prefix + "vecloop")
			if g.mode == ModeSRV {
				g.b.SRVStart(isa.DirDown)
			}
			for _, s := range g.l.Body {
				g.vecStmt(s)
			}
			if g.mode == ModeSRV {
				g.b.SRVEnd()
			}
			g.b.AddI(regI, regI, -int64(isa.NumLanes))
			for _, a := range g.sortedPtrs() {
				g.b.AddI(g.ptr[a], g.ptr[a], -int64(isa.NumLanes*a.Elem))
			}
			g.b.BGE(regI, regBound, g.prefix+"vecloop")
		}
		if rem > 0 {
			g.scalarLoopDesc(rem - 1)
		}
		return nil
	}
	g.b.MovI(regI, 0)
	if main > 0 {
		g.b.MovI(regBound, int64(main))
		g.b.Label(g.prefix + "vecloop")
		if g.mode == ModeSRV {
			g.b.SRVStart(isa.DirUp)
		}
		for _, s := range g.l.Body {
			g.vecStmt(s)
		}
		if g.mode == ModeSRV {
			g.b.SRVEnd()
		}
		g.b.AddI(regI, regI, int64(isa.NumLanes))
		for _, a := range g.sortedPtrs() {
			g.b.AddI(g.ptr[a], g.ptr[a], int64(isa.NumLanes*a.Elem))
		}
		g.b.BLT(regI, regBound, g.prefix+"vecloop")
	}
	if main < g.l.Trip {
		if g.l.PredTail {
			g.vecTail(main)
		} else {
			g.scalarLoop(main, g.l.Trip)
		}
	}
	return nil
}

// tailPred is the predicate register reserved for the tail-group mask
// (statement guards use p0).
const tailPred = 1

// vecTail finishes the remainder iterations [main, Trip) as one predicated
// vector group — SVE-style tail predication (whilelo) instead of a scalar
// epilogue. Lanes main+k >= Trip are masked off by the governing
// predicate; inside an SRV region the SRV-replay register further
// restricts execution per §III.
func (g *gen) vecTail(main int) {
	g.b.MovI(regI, int64(main))
	for _, a := range g.sortedPtrs() {
		g.b.MovI(g.ptr[a], int64(a.Addr(int64(main))))
	}
	g.vTmp, g.sTmp = 0, 0
	iota := g.vtmp()
	g.b.VIota(iota, regI)
	bound := g.vtmp()
	bs := g.stmp()
	g.b.MovI(bs, int64(g.l.Trip))
	g.b.VSplat(bound, bs)
	g.b.Emit(isa.Inst{Op: isa.OpVCmpLT, Rd: tailPred, Rs1: iota, Rs2: bound, Pg: isa.NoPred})
	if g.mode == ModeSRV {
		g.b.SRVStart(isa.DirUp)
	}
	for _, s := range g.l.Body {
		g.vecStmtPg(s, tailPred)
	}
	if g.mode == ModeSRV {
		g.b.SRVEnd()
	}
}

// sortedPtrs returns the moving-pointer arrays in a deterministic order
// (map iteration would randomise the emitted instruction sequence and make
// cycle counts non-reproducible).
func (g *gen) sortedPtrs() []*Array {
	arrs := make([]*Array, 0, len(g.ptr))
	for a := range g.ptr {
		arrs = append(arrs, a)
	}
	sort.Slice(arrs, func(i, j int) bool { return arrs[i].Name < arrs[j].Name })
	return arrs
}

func (g *gen) alloc() int {
	r := g.nextFixed
	g.nextFixed++
	return r
}

func (g *gen) stmp() int {
	r := g.tmpBase + g.sTmp
	g.sTmp++
	if r >= isa.NumSclRegs {
		panic(fmt.Sprintf("compiler: scalar temporaries exhausted in loop %s", g.l.Name))
	}
	return r
}

func (g *gen) vtmp() int {
	r := g.vTmp
	g.vTmp++
	if r >= g.vconstTop {
		panic(fmt.Sprintf("compiler: vector temporaries exhausted in loop %s", g.l.Name))
	}
	return r
}

// needBases lists arrays addressed through a base register: indirect
// (gather/scatter) targets and non-unit-stride or loop-invariant subscripts.
func needBases(l *Loop) []*Array {
	var out []*Array
	seen := make(map[*Array]bool)
	add := func(a *Array) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range l.accesses() {
		if a.idx.Indirect != nil || a.idx.Scale != 1 {
			add(a.arr)
		}
		if a.idx.Indirect != nil && a.idx.Scale != 1 {
			add(a.idx.Indirect)
		}
	}
	return out
}

// needPointers lists arrays accessed with a unit-stride affine subscript
// (directly or as an index array), which get a moving pointer.
func needPointers(l *Loop) []*Array {
	var out []*Array
	seen := make(map[*Array]bool)
	for _, a := range l.accesses() {
		if a.idx.Indirect == nil && a.idx.Scale == 1 && !seen[a.arr] {
			seen[a.arr] = true
			out = append(out, a.arr)
		}
		if a.idx.Indirect != nil && a.idx.Scale == 1 && !seen[a.idx.Indirect] {
			seen[a.idx.Indirect] = true
			out = append(out, a.idx.Indirect)
		}
	}
	return out
}

// collectConsts gathers literal values used by value expressions so they can
// be hoisted into registers.
func collectConsts(l *Loop) []int64 {
	var out []int64
	lit := func(e Expr) {
		if c, ok := e.(Const); ok && !slices.Contains(out, c.V) {
			out = append(out, c.V)
		}
	}
	for _, s := range l.Body {
		walkLeaves(s.Val, lit)
	}
	return out
}

func log2(n int) int64 {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("compiler: element size %d not a power of two", n))
	}
	return int64(bits.TrailingZeros(uint(n)))
}

// ---- Scalar codegen ----

// scalarLoop emits for i in [from, to) { body } one element at a time.
func (g *gen) scalarLoop(from, to int) {
	if to <= from {
		return
	}
	label := fmt.Sprintf("%ssloop%d_%d", g.prefix, from, g.b.Len())
	g.b.MovI(regI, int64(from))
	g.b.MovI(regBound, int64(to))
	// Re-seed moving pointers at &arr[from].
	for _, a := range g.sortedPtrs() {
		g.b.MovI(g.ptr[a], int64(a.Addr(int64(from))))
	}
	g.b.Label(label)
	for _, s := range g.l.Body {
		g.sTmp = 0
		g.scalarStmt(s)
	}
	g.b.AddI(regI, regI, 1)
	for _, a := range g.sortedPtrs() {
		g.b.AddI(g.ptr[a], g.ptr[a], int64(a.Elem))
	}
	g.b.BLT(regI, regBound, label)
}

// scalarLoopDesc emits for i := from; i >= 0; i-- { body }.
func (g *gen) scalarLoopDesc(from int) {
	label := fmt.Sprintf("%sdloop%d_%d", g.prefix, from, g.b.Len())
	g.b.MovI(regI, int64(from))
	g.b.MovI(regBound, 0)
	for _, a := range g.sortedPtrs() {
		g.b.MovI(g.ptr[a], int64(a.Addr(int64(from))))
	}
	g.b.Label(label)
	for _, s := range g.l.Body {
		g.sTmp = 0
		g.scalarStmt(s)
	}
	g.b.AddI(regI, regI, -1)
	for _, a := range g.sortedPtrs() {
		g.b.AddI(g.ptr[a], g.ptr[a], -int64(a.Elem))
	}
	g.b.BGE(regI, regBound, label)
}

func (g *gen) scalarStmt(s Stmt) {
	skip := ""
	if s.Mask != nil {
		// If the guard fails, branch around the statement (the scalar code
		// keeps the control flow the vector code if-converts away).
		l := g.scalarExpr(s.Mask.L)
		r := g.scalarExpr(s.Mask.R)
		skip = fmt.Sprintf("%sskip%d_%d", g.prefix, g.b.Len(), s.Mask.Op)
		branchUnless(g.b, s.Mask.Op, l, r, skip)
	}
	v := g.scalarExpr(s.Val)
	addr := g.scalarAddr(s.Dst, s.Idx)
	g.b.Store(addr, 0, s.Dst.Elem, v)
	if skip != "" {
		g.b.Label(skip)
	}
}

// branchUnless emits the scalar branch to skip taken when the guard
// comparison l op r fails. An unknown op emits nothing.
func branchUnless(b *isa.Builder, op CmpOp, l, r int, skip string) {
	switch op {
	case CmpLT:
		b.BGE(l, r, skip)
	case CmpGE:
		b.BLT(l, r, skip)
	case CmpEQ:
		b.BNE(l, r, skip)
	case CmpNE:
		b.BEQ(l, r, skip)
	}
}

// scalarAddr materialises the element address of arr[idx] in a register.
func (g *gen) scalarAddr(arr *Array, ix Index) int {
	if ix.Indirect != nil {
		mark := g.sTmp
		iv := g.scalarLoadAffine(ix.Indirect, ix.Scale, ix.Offset)
		g.sTmp = mark
		t := g.stmp()
		g.b.ShlI(t, iv, log2(arr.Elem))
		g.b.Add(t, t, g.base[arr])
		return t
	}
	switch ix.Scale {
	case 1:
		if p, ok := g.ptr[arr]; ok {
			t := g.stmp()
			g.b.AddI(t, p, ix.Offset*int64(arr.Elem))
			return t
		}
	case 0:
		t := g.stmp()
		g.b.MovI(t, int64(arr.Addr(ix.Offset)))
		return t
	}
	// General affine: base + (scale*i + offset)*elem.
	t := g.stmp()
	g.b.MovI(t, ix.Scale)
	g.b.Mul(t, t, regI)
	g.b.AddI(t, t, ix.Offset)
	g.b.ShlI(t, t, log2(arr.Elem))
	g.b.Add(t, t, g.base[arr])
	return t
}

// scalarLoadAffine loads arr[scale*i+offset] into a register.
func (g *gen) scalarLoadAffine(arr *Array, scale, offset int64) int {
	mark := g.sTmp
	addr := g.scalarAddr(arr, Affine(scale, offset))
	g.sTmp = mark
	t := g.stmp()
	g.b.Load(t, addr, 0, arr.Elem)
	return t
}

func (g *gen) scalarExpr(e Expr) int {
	switch x := e.(type) {
	case Const:
		if r, ok := g.constReg[x.V]; ok {
			return r
		}
		t := g.stmp()
		g.b.MovI(t, x.V)
		return t
	case IV:
		return regI
	case Ref:
		mark := g.sTmp
		addr := g.scalarAddr(x.Arr, x.Idx)
		g.sTmp = mark
		t := g.stmp()
		g.b.Load(t, addr, 0, x.Arr.Elem)
		return t
	case Bin:
		mark := g.sTmp
		l := g.scalarExpr(x.L)
		r := g.scalarExpr(x.R)
		// Subexpression temporaries are dead once consumed; the result may
		// reuse the lowest one (sources are read before the write).
		g.sTmp = mark
		t := g.stmp()
		switch x.Op {
		case OpAdd:
			g.emitFP(func() { g.b.Add(t, l, r) })
		case OpSub:
			g.emitFP(func() { g.b.Sub(t, l, r) })
		case OpMul:
			g.emitFP(func() { g.b.Mul(t, l, r) })
		case OpMulAdd:
			g.emitFP(func() { g.b.Mul(t, l, r) })
			c := g.scalarExpr(x.C)
			g.emitFP(func() { g.b.Add(t, t, c) })
		case OpAnd:
			g.b.And(t, l, r)
		case OpXor:
			g.b.Xor(t, l, r)
		case OpShr:
			cv, ok := x.R.(Const)
			if !ok {
				panic("compiler: OpShr needs a constant shift")
			}
			g.b.ShrI(t, l, cv.V)
		}
		return t
	}
	panic("compiler: unknown expression")
}

// ---- Vector codegen ----

func (g *gen) vecStmt(s Stmt) { g.vecStmtPg(s, isa.NoPred) }

// vecStmtPg lowers one statement under a base governing predicate (NoPred
// for full groups, tailPred for the predicated tail). A statement guard is
// ANDed into the base.
func (g *gen) vecStmtPg(s Stmt, base int) {
	g.vTmp = 0
	g.sTmp = 0
	pg := base
	if s.Mask != nil {
		l := g.vecExpr(s.Mask.L, base)
		r := g.vecExpr(s.Mask.R, base)
		vcmp(g.b, s.Mask.Op, 0, l, r)
		if base != isa.NoPred {
			g.b.PAnd(0, 0, base)
		}
		pg = 0
	}
	v := g.vecExpr(s.Val, pg)
	g.vecStore(s.Dst, s.Idx, v, pg)
}

// vcmp emits the unpredicated vector comparison pd = l op r. An unknown op
// emits nothing.
func vcmp(b *isa.Builder, op CmpOp, pd, l, r int) {
	switch op {
	case CmpLT:
		b.VCmpLT(pd, l, r, isa.NoPred)
	case CmpGE:
		b.VCmpGE(pd, l, r, isa.NoPred)
	case CmpEQ:
		b.VCmpEQ(pd, l, r, isa.NoPred)
	case CmpNE:
		b.VCmpNE(pd, l, r, isa.NoPred)
	}
}

// vecIndexVector materialises the lane-index vector for an affine subscript
// scale*i+offset (used by gathers over non-unit strides). For descending
// SRV loops lane k holds iteration regI - k, produced by the reversed iota
// to match the DOWN region's lane attribution (lane 0 = sequentially
// oldest = highest iteration). Descending SVE loops have no region
// attribute: the compiler reverses the iteration space instead — groups
// run highest-first, lanes ascend within a group — so lane k holds
// iteration regI - 15 + k.
func (g *gen) vecIndexVector(scale, offset int64) int {
	t := g.vtmp()
	switch {
	case g.l.Down && g.mode == ModeSRV:
		low := g.stmp()
		g.b.AddI(low, regI, -int64(isa.NumLanes-1))
		g.b.VIotaRev(t, low) // i, i-1, ..., i-15 across lanes 0..15
	case g.l.Down:
		low := g.stmp()
		g.b.AddI(low, regI, -int64(isa.NumLanes-1))
		g.b.VIota(t, low) // i-15, ..., i across lanes 0..15
	default:
		g.b.VIota(t, regI) // i, i+1, ..., i+15
	}
	if scale != 1 {
		g.b.VMulI(t, t, scale, isa.NoPred)
	}
	if offset != 0 {
		g.b.VAddI(t, t, offset, isa.NoPred)
	}
	return t
}

// vecLoadIdx produces the index vector held by an indirect subscript.
func (g *gen) vecLoadIdx(ix Index, pg int) int {
	arr := ix.Indirect
	t := g.vtmp()
	if ix.Scale == 1 {
		g.b.VLoad(t, g.ptr[arr], ix.Offset*int64(arr.Elem), arr.Elem, pg)
	} else {
		iv := g.vecIndexVector(ix.Scale, ix.Offset)
		g.b.VGather(t, g.base[arr], iv, 0, arr.Elem, pg)
	}
	return t
}

func (g *gen) vecRef(x Ref, pg int) int {
	arr, ix := x.Arr, x.Idx
	t := g.vtmp()
	if ix.Indirect != nil {
		iv := g.vecLoadIdx(ix, pg)
		g.b.VGather(t, g.base[arr], iv, 0, arr.Elem, pg)
		return t
	}
	switch ix.Scale {
	case 1:
		g.b.VLoad(t, g.ptr[arr], ix.Offset*int64(arr.Elem), arr.Elem, pg)
	case 0:
		g.b.VBcast(t, g.base[arr], ix.Offset*int64(arr.Elem), arr.Elem, pg)
	default:
		iv := g.vecIndexVector(ix.Scale, ix.Offset)
		g.b.VGather(t, g.base[arr], iv, 0, arr.Elem, pg)
	}
	return t
}

func (g *gen) vecStore(arr *Array, ix Index, v, pg int) {
	if ix.Indirect != nil {
		iv := g.vecLoadIdx(ix, pg)
		g.b.VScatter(g.base[arr], iv, v, 0, arr.Elem, pg)
		return
	}
	switch ix.Scale {
	case 1:
		g.b.VStore(g.ptr[arr], ix.Offset*int64(arr.Elem), arr.Elem, v, pg)
	case 0:
		// A loop-invariant store address: scatter through a zero index so
		// WAW resolution keeps the youngest lane.
		iv := g.vtmp()
		zero := g.stmp()
		g.b.MovI(zero, ix.Offset)
		g.b.VSplat(iv, zero)
		g.b.VScatter(g.base[arr], iv, v, 0, arr.Elem, pg)
	default:
		iv := g.vecIndexVector(ix.Scale, ix.Offset)
		g.b.VScatter(g.base[arr], iv, v, 0, arr.Elem, pg)
	}
}

func (g *gen) vecExpr(e Expr, pg int) int {
	switch x := e.(type) {
	case Const:
		if vr, ok := g.vconstReg[x.V]; ok {
			return vr
		}
		t := g.vtmp()
		if r, ok := g.constReg[x.V]; ok {
			g.b.VSplat(t, r)
		} else {
			s := g.stmp()
			g.b.MovI(s, x.V)
			g.b.VSplat(t, s)
		}
		return t
	case IV:
		return g.vecIndexVector(1, 0)
	case Ref:
		return g.vecRef(x, pg)
	case Bin:
		mark := g.vTmp
		l := g.vecExpr(x.L, pg)
		r := g.vecExpr(x.R, pg)
		if x.Op == OpMulAdd {
			// Multi-instruction lowering: the destination is written twice,
			// so it must not alias a live source; keep temporaries live.
			c := g.vecExpr(x.C, pg)
			t := g.vtmp()
			g.b.VMov(t, c, isa.NoPred)
			g.emitFP(func() { g.b.VMulAdd(t, l, r, pg) })
			return t
		}
		// Single-instruction ops read sources before writing, so the result
		// may reuse a released temporary.
		g.vTmp = mark
		t := g.vtmp()
		switch x.Op {
		case OpAdd:
			g.emitFP(func() { g.b.VAdd(t, l, r, pg) })
		case OpSub:
			g.emitFP(func() { g.b.VSub(t, l, r, pg) })
		case OpMul:
			g.emitFP(func() { g.b.VMul(t, l, r, pg) })
		case OpAnd:
			g.b.VAnd(t, l, r, pg)
		case OpXor:
			g.b.VXor(t, l, r, pg)
		case OpShr:
			cv, ok := x.R.(Const)
			if !ok {
				panic("compiler: OpShr needs a constant shift")
			}
			g.b.VShrI(t, l, cv.V, pg)
		}
		return t
	}
	panic("compiler: unknown expression")
}

// emitFP emits an instruction and tags it FP-class when the loop is an FP
// kernel.
func (g *gen) emitFP(emit func()) {
	emit()
	if g.l.FP {
		g.b.SetLastFP()
	}
}
