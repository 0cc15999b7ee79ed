// Package trace implements the motivation limit study of paper §II: it
// records through-memory dependences of inner loops at run time and
// estimates the optimal performance 16-wide vectorisation could obtain if
// only true (RAW) cross-iteration dependences forced serialisation — WAW and
// WAR hazards are assumed resolved by store buffering.
package trace

import (
	"srvsim/internal/compiler"
	"srvsim/internal/mem"
)

// LoopProfile is the result of profiling one inner loop.
type LoopProfile struct {
	Name          string
	Verdict       compiler.Verdict
	Groups        int64   // 16-iteration vector groups
	Subgroups     int64   // groups after splitting at true dependences
	RemainderIts  int64   // epilogue iterations executed scalar
	IdealSpeedup  float64 // trip / (subgroups + remainder)
	HadRuntimeRAW bool    // a true dependence actually occurred inside a group
}

// ProfileLoop emulates 16-wide vectorisation of the loop over the image
// (which is consumed: the loop executes). Groups split only at true RAW
// dependences between iterations of the same group, evaluated against the
// pre-group memory state (compiler.EmulateGroups).
func ProfileLoop(l *compiler.Loop, im *mem.Image) LoopProfile {
	l.Bind(im)
	p := LoopProfile{Name: l.Name, Verdict: compiler.Analyse(l).Verdict}
	p.RemainderIts = int64(compiler.EmulateGroups(l, im, func(sub int64) {
		p.Groups++
		p.Subgroups += sub
		p.HadRuntimeRAW = p.HadRuntimeRAW || sub > 1
	}))
	den := float64(p.Subgroups + p.RemainderIts)
	if den == 0 {
		den = 1
	}
	p.IdealSpeedup = float64(l.Trip) / den
	return p
}

// WeightedLoop pairs a loop profile with its share of a benchmark's dynamic
// instructions.
type WeightedLoop struct {
	Profile LoopProfile
	Weight  float64 // fraction of whole-program dynamic instructions
}

// Study aggregates the limit-study numbers the paper reports.
type Study struct {
	// PotentialAll: whole-program speedup if every inner loop vectorised at
	// its ideal factor (the paper's 2.1x average).
	PotentialAll float64
	// PotentialSafeOnly: speedup when loops with unknown through-memory
	// dependences stay scalar (the paper's 1.02x).
	PotentialSafeOnly float64
	// UnknownFrac: fraction of the not-provably-safe inner loops whose
	// blocker is an unknown dependence (the paper: > 70%).
	UnknownFrac float64
}

// Summarise applies Amdahl's law over the weighted loops of one benchmark.
func Summarise(loops []WeightedLoop) Study {
	var s Study
	coveredAll, coveredSafe := 0.0, 0.0
	scaledAll, scaledSafe := 0.0, 0.0
	unknown, notSafe := 0, 0
	for _, wl := range loops {
		sp := wl.Profile.IdealSpeedup
		if sp < 1 {
			sp = 1
		}
		coveredAll += wl.Weight
		scaledAll += wl.Weight / sp
		if wl.Profile.Verdict == compiler.VerdictSafe {
			coveredSafe += wl.Weight
			scaledSafe += wl.Weight / sp
		} else {
			notSafe++
			if wl.Profile.Verdict == compiler.VerdictUnknown {
				unknown++
			}
		}
	}
	s.PotentialAll = 1 / (1 - coveredAll + scaledAll)
	s.PotentialSafeOnly = 1 / (1 - coveredSafe + scaledSafe)
	if notSafe > 0 {
		s.UnknownFrac = float64(unknown) / float64(notSafe)
	}
	return s
}
