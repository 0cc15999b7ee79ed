package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"srvsim/internal/isa"
)

// Per-PC replay-cost attribution (the speculation profile behind
// `srvsim -replay-profile`). The SRV controller's aggregate counters say how
// often the region replayed; this profile says *which static instruction's
// mispredicted dependence paid for it: every lane marked for re-execution is
// tagged with the marking instruction, and when a replay round (or fallback
// demotion) happens, its rounds, squashed lanes and subsequent pass cycles
// are charged to the instruction whose mark caused it.
//
// The profile follows the tracer's zero-alloc slab discipline: one row slab
// sized by program length at enable time, fixed-size lane-mark array, no
// allocation per event. Disabled (the default) every hook is a nil check, so
// the speculative hot path stays allocation-free and bit-identical.

// PCReplayStats is one static instruction's attribution row.
type PCReplayStats struct {
	// PC is the static instruction index; -1 for the interrupt/resume
	// pseudo-row (lanes the controller marks when resuming a suspended
	// region, §III-D2 — no static instruction caused those).
	PC int    `json:"pc"`
	Op string `json:"op"`
	// RAWViolations counts RecordRAW calls attributed to this store
	// (aggregate counterpart: srv.viol.raw).
	RAWViolations int64 `json:"raw_violations"`
	// ExcMarks counts deferred-exception lane markings by this instruction
	// (aggregate counterpart: srv.excReplays).
	ExcMarks int64 `json:"exc_marks"`
	// ReplayRounds counts replay passes whose oldest marked lane this
	// instruction marked (aggregate counterpart: srv.replays).
	ReplayRounds int64 `json:"replay_rounds"`
	// SquashedLanes counts re-executed lanes this instruction marked
	// (aggregate counterpart: srv.replayLanes).
	SquashedLanes int64 `json:"squashed_lanes"`
	// Fallbacks counts sequential demotions this instruction forced
	// (aggregate counterpart: srv.fallbacks).
	Fallbacks int64 `json:"fallbacks"`
	// WastedCycles is the cycles spent in the replay rounds and fallback
	// passes charged to this instruction.
	WastedCycles int64 `json:"wasted_cycles"`
}

// pcRow is the in-slab accumulator behind PCReplayStats.
type pcRow struct {
	raw, excMarks, rounds, lanes, fallbacks, wasted int64
}

// replayProfile is the live profile state. rows[0] is the interrupt/resume
// pseudo-row; rows[pc+1] belongs to static pc.
type replayProfile struct {
	rows []pcRow
	// markedBy[l] records which row first marked lane l for re-execution in
	// the current pass: 0 = unmarked, otherwise rowIndex+1.
	markedBy [isa.NumLanes]int32
	// causeRow is the row charged for the wall clock of the replay/fallback
	// pass in flight (-1 = the architectural first pass, charged to no one).
	causeRow  int32
	passStart int64

	// Aggregates (always the column sums of rows).
	rounds, lanes, fallbacks, wasted int64
}

// profCtrKeys are the Perfetto counter-track keys, alphabetically sorted
// (the CounterInts slab contract).
var profCtrKeys = []string{"replay_rounds", "squashed_lanes", "wasted_cycles"}

// EnableReplayProfile turns on per-PC replay attribution. Call before Run;
// the slab is sized by the program. Profiling changes no architectural
// behaviour — DumpStats stays bit-identical with it off.
func (p *Pipeline) EnableReplayProfile() {
	p.prof = &replayProfile{rows: make([]pcRow, p.Prog.Len()+1), causeRow: -1}
	p.LSU.OnRAW = p.profRAW
}

// profRAW attributes one horizontal RAW violation to the store at pc and
// tags the marked lanes (LSU.OnRAW hook; fires only when profiling is on).
func (p *Pipeline) profRAW(pc int, lanes isa.Pred) {
	pr := p.prof
	row := int32(pc + 1)
	pr.rows[row].raw++
	for l := 0; l < isa.NumLanes; l++ {
		if lanes[l] && pr.markedBy[l] == 0 {
			pr.markedBy[l] = row + 1
		}
	}
}

// profExcMark attributes a deferred exception at pc: the faulting lane and
// all younger ones were marked for re-execution (§III-D3).
func (p *Pipeline) profExcMark(pc, lane int) {
	if p.prof == nil {
		return
	}
	pr := p.prof
	row := int32(pc + 1)
	pr.rows[row].excMarks++
	for l := lane; l < isa.NumLanes; l++ {
		if pr.markedBy[l] == 0 {
			pr.markedBy[l] = row + 1
		}
	}
}

// profResume tags the lanes the controller marked while resuming a
// suspended region (younger than the oldest saved lane) with the
// interrupt/resume pseudo-row: no static instruction caused them.
func (p *Pipeline) profResume() {
	if p.prof == nil {
		return
	}
	pr := p.prof
	need := p.Ctrl.NeedsReplay()
	for l := 0; l < isa.NumLanes; l++ {
		if need[l] && pr.markedBy[l] == 0 {
			pr.markedBy[l] = 1 // rows[0], the pseudo-row
		}
	}
}

// profSuspend closes the profile across a region suspend or abort
// (interrupt/fault): the open pass clock is charged and the lane marks are
// dropped, mirroring the controller clearing needs-replay.
func (p *Pipeline) profSuspend() {
	if p.prof == nil {
		return
	}
	pr := p.prof
	if pr.causeRow >= 0 {
		d := p.cycle - pr.passStart
		pr.rows[pr.causeRow].wasted += d
		pr.wasted += d
		pr.causeRow = -1
	}
	pr.markedBy = [isa.NumLanes]int32{}
}

// profClosePass charges the elapsed pass to its causing row at srv_end,
// before the controller decides what happens next. The cause survives into
// a following fallback lane pass (EndNextLane keeps charging the demoting
// instruction); commit and replay reset it.
func (p *Pipeline) profClosePass() {
	if p.prof == nil {
		return
	}
	pr := p.prof
	if pr.causeRow >= 0 {
		d := p.cycle - pr.passStart
		pr.rows[pr.causeRow].wasted += d
		pr.wasted += d
		pr.passStart = p.cycle
	}
}

// profEndCommit clears the pass attribution on a clean region exit.
func (p *Pipeline) profEndCommit() {
	if p.prof == nil {
		return
	}
	p.prof.causeRow = -1
	p.prof.markedBy = [isa.NumLanes]int32{}
}

// profReplayRound attributes one replay pass (controller returned
// EndReplay): every lane in the replay set is charged to the instruction
// that marked it, the round itself to the marker of the oldest lane, and the
// coming pass's cycles accrue to that row.
func (p *Pipeline) profReplayRound() {
	if p.prof == nil {
		return
	}
	pr := p.prof
	rep := p.Ctrl.Replay()
	cause := int32(0) // pseudo-row, should a lane arrive unmarked
	first := true
	for l := 0; l < isa.NumLanes; l++ {
		if !rep[l] {
			continue
		}
		row := pr.markedBy[l]
		if row == 0 {
			row = 1 // defensive: charge the pseudo-row, never lose a lane
		}
		pr.rows[row-1].lanes++
		pr.lanes++
		if first {
			cause = row - 1
			first = false
		}
	}
	pr.rows[cause].rounds++
	pr.rounds++
	pr.causeRow = cause
	pr.passStart = p.cycle
	pr.markedBy = [isa.NumLanes]int32{}
	if p.tracer != nil {
		p.traceProfCounters()
	}
}

// profFallback attributes a sequential demotion to the instruction at
// causePC (LSQ overflow store, or the srv_end of the no-selective-replay
// ablation): any open replay pass is closed first, then the whole
// sequential re-execution accrues to this row.
func (p *Pipeline) profFallback(causePC int) {
	if p.prof == nil {
		return
	}
	pr := p.prof
	if pr.causeRow >= 0 {
		d := p.cycle - pr.passStart
		pr.rows[pr.causeRow].wasted += d
		pr.wasted += d
	}
	row := int32(causePC + 1)
	pr.rows[row].fallbacks++
	pr.fallbacks++
	pr.causeRow = row
	pr.passStart = p.cycle
	pr.markedBy = [isa.NumLanes]int32{}
	if p.tracer != nil {
		p.traceProfCounters()
	}
}

// traceProfCounters emits the profile aggregates as a Perfetto counter
// track (zero-alloc CounterInts slab path; replay rounds and fallbacks are
// rare, so this is off the per-cycle path).
func (p *Pipeline) traceProfCounters() {
	pr := p.prof
	p.tracer.CounterInts("replay attribution", p.cycle, profCtrKeys,
		[]int64{pr.rounds, pr.lanes, pr.wasted})
}

// ReplayProfiling reports whether the per-PC profile is enabled.
func (p *Pipeline) ReplayProfiling() bool { return p.prof != nil }

// ReplayProfile returns the non-zero attribution rows: the interrupt/resume
// pseudo-row first (PC -1) when populated, then static instructions in
// program order. Nil when profiling is off.
func (p *Pipeline) ReplayProfile() []PCReplayStats {
	if p.prof == nil {
		return nil
	}
	var out []PCReplayStats
	for i, r := range p.prof.rows {
		if r == (pcRow{}) {
			continue
		}
		st := PCReplayStats{
			PC:            i - 1,
			RAWViolations: r.raw,
			ExcMarks:      r.excMarks,
			ReplayRounds:  r.rounds,
			SquashedLanes: r.lanes,
			Fallbacks:     r.fallbacks,
			WastedCycles:  r.wasted,
		}
		if i == 0 {
			st.Op = "<interrupt/resume>"
		} else {
			st.Op = p.Prog.At(i - 1).String()
		}
		out = append(out, st)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].PC < out[b].PC })
	return out
}

// RenderReplayProfile formats the profile as a text table with a totals
// footer (the totals equal the controller's aggregate counters, which is
// what the invariant tests pin down).
func (p *Pipeline) RenderReplayProfile() string {
	rows := p.ReplayProfile()
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %-28s %8s %8s %8s %8s %8s %12s\n",
		"pc", "op", "raw", "excMark", "rounds", "lanes", "fallbk", "wastedCycles")
	var t PCReplayStats
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %-28s %8d %8d %8d %8d %8d %12d\n",
			r.PC, r.Op, r.RAWViolations, r.ExcMarks, r.ReplayRounds,
			r.SquashedLanes, r.Fallbacks, r.WastedCycles)
		t.RAWViolations += r.RAWViolations
		t.ExcMarks += r.ExcMarks
		t.ReplayRounds += r.ReplayRounds
		t.SquashedLanes += r.SquashedLanes
		t.Fallbacks += r.Fallbacks
		t.WastedCycles += r.WastedCycles
	}
	fmt.Fprintf(&b, "%6s  %-28s %8d %8d %8d %8d %8d %12d\n",
		"", "total", t.RAWViolations, t.ExcMarks, t.ReplayRounds,
		t.SquashedLanes, t.Fallbacks, t.WastedCycles)
	return b.String()
}
