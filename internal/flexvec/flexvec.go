// Package flexvec emulates FlexVec (Baghsorkhi et al., PLDI 2016) for the
// comparison of paper §VI-D / Fig 13. FlexVec inserts compiler-generated
// run-time conflict checks (a VCONFLICTM-style instruction per potentially
// aliasing access pair) before every vector group and partially vectorises:
// execution proceeds in maximal conflict-free lane prefixes, so a group with
// violating lanes splits into several partial-width subgroups.
//
// Following the paper's methodology, the comparison is by dynamic
// instruction count in an emulator (validated against the cycle simulator):
// the VCONFLICTM is broken into one instruction per element, each comparing
// that element against all enabled previous elements.
package flexvec

import (
	"fmt"

	"srvsim/internal/compiler"
	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// Result summarises one loop's dynamic instruction counts under both
// schemes.
type Result struct {
	Groups       int64 // vector groups of 16 iterations
	Subgroups    int64 // partial groups FlexVec executed
	CheckInsts   int64 // conflict-check instructions (split VCONFLICTM + index loads)
	BodyInsts    int64 // vector-body instructions across subgroups
	LoopInsts    int64 // loop-control instructions
	FlexVecInsts int64 // total FlexVec dynamic instructions
	SRVInsts     int64 // total SRV dynamic instructions (interpreter-measured)
	SRVReplays   int64
}

// Ratio returns SRV instructions as a fraction of FlexVec's (Fig 13's
// metric; < 0.6 for most benchmarks in the paper).
func (r Result) Ratio() float64 {
	if r.FlexVecInsts == 0 {
		return 0
	}
	return float64(r.SRVInsts) / float64(r.FlexVecInsts)
}

// Compare runs both emulations over the loop. The image provides the input
// data; it is cloned per scheme so the caller's copy is untouched.
func Compare(l *compiler.Loop, im *mem.Image) (Result, error) {
	var res Result
	if l.Down {
		return res, fmt.Errorf("flexvec: descending loops are not modelled (normalise the iteration space)")
	}
	l.Bind(im)

	// --- SRV side: measure the compiled program in the interpreter. ---
	imSRV := im.Clone()
	srv, err := compiler.Compile(l, imSRV, compiler.ModeSRV)
	if err != nil {
		return res, fmt.Errorf("flexvec: %w", err)
	}
	ip := isa.NewInterp(srv.Prog, imSRV)
	if err := ip.Run(500_000_000); err != nil {
		return res, fmt.Errorf("flexvec: SRV emulation: %w", err)
	}
	res.SRVInsts = ip.Counts.Insts
	res.SRVReplays = ip.Counts.Replays

	// --- FlexVec side: analytic emulation over the same data. ---
	bodyV, loopO, aliasPairs := staticCounts(srv)
	imFV := im.Clone()
	rem := compiler.EmulateGroups(l, imFV, func(sub int64) {
		res.Groups++
		// Conflict detection at group entry: one split VCONFLICTM per
		// aliasing pair, 16 per-element compare instructions plus one
		// index-vector load and one mask combine.
		res.CheckInsts += int64(aliasPairs) * (isa.NumLanes + 2)
		res.Subgroups += sub
		// Each subgroup executes the full vector body under a partial
		// predicate (FlexVec predicates off the remaining lanes).
		res.BodyInsts += sub * int64(bodyV)
		res.LoopInsts += int64(loopO)
	})
	// Scalar remainder, charged at the scalar body cost.
	if rem > 0 {
		if sc, err := compiler.Compile(l, imFV, compiler.ModeScalar); err == nil {
			res.LoopInsts += int64(rem * scalarBodyLen(sc))
		}
	}
	res.FlexVecInsts = res.CheckInsts + res.BodyInsts + res.LoopInsts
	return res, nil
}

// staticCounts extracts the vector-body length, per-group loop overhead and
// the number of potentially aliasing access pairs from the compiled SRV
// program / loop.
func staticCounts(c *compiler.Compiled) (body, loop, aliasPairs int) {
	prog := c.Prog
	start, end := -1, -1
	for pc := 0; pc < prog.Len(); pc++ {
		switch prog.At(pc).Op {
		case isa.OpSRVStart:
			if start < 0 {
				start = pc
			}
		case isa.OpSRVEnd:
			if end < 0 {
				end = pc
			}
		}
	}
	if start >= 0 && end > start {
		body = end - start - 1
	}
	// Loop maintenance: instructions from srv_end+1 up to and including the
	// backward branch.
	if end >= 0 {
		for pc := end + 1; pc < prog.Len(); pc++ {
			loop++
			if prog.At(pc).IsBranch() {
				break
			}
		}
	}
	aliasPairs = aliasPairCount(c.Loop)
	return
}

// aliasPairCount counts access pairs the compiler cannot disambiguate — each
// needs a run-time check in FlexVec.
func aliasPairCount(l *compiler.Loop) int {
	n := 0
	accs := l.AccessSummaries()
	for i, a := range accs {
		for j := i + 1; j < len(accs); j++ {
			b := accs[j]
			if a.Arr != b.Arr || (!a.IsStore && !b.IsStore) {
				continue
			}
			if a.Unknown || b.Unknown {
				n++
			}
		}
	}
	if n == 0 {
		n = 1 // FlexVec still emits one guard check for the marked loop
	}
	return n
}

func scalarBodyLen(c *compiler.Compiled) int {
	// Instructions between the scalar loop label and its backward branch.
	prog := c.Prog
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		if in.IsBranch() && in.Tgt < pc {
			return pc - in.Tgt + 1
		}
	}
	return prog.Len()
}
