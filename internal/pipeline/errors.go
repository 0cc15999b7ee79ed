package pipeline

import (
	"errors"
	"fmt"
	"strings"
)

// Typed simulation failures. The harness classifies a run's outcome with
// errors.Is / errors.As, so every abnormal exit from Run carries one of
// these sentinels (possibly wrapped with context).
var (
	// ErrCycleBudget: the simulation ran past Config.MaxCycles. The program
	// kept committing instructions — it simply did more work than budgeted.
	ErrCycleBudget = errors.New("pipeline: cycle budget exhausted")
	// ErrDeadlock: the forward-progress watchdog fired — no instruction
	// committed for Config.WatchdogCycles straight cycles. Unlike a budget
	// overrun this is a wedge: the machine is cycling without retiring
	// anything, which a longer budget cannot fix.
	ErrDeadlock = errors.New("pipeline: no forward progress")
	// ErrCancelled: the context passed to RunContext was cancelled, e.g. by
	// a harness-imposed wall-clock timeout.
	ErrCancelled = errors.New("pipeline: simulation cancelled")
)

// DeadlockError reports a watchdog trip with enough machine state to debug
// it: errors.Is(err, ErrDeadlock) matches, and Snapshot holds a textual dump
// of the front end, ROB head and LSU at the moment of detection.
type DeadlockError struct {
	Cycle    int64  // cycle at which the watchdog fired
	Window   int64  // commit-free cycles that triggered it
	PC       int    // fetch PC at detection
	Snapshot string // Pipeline.Snapshot() at detection
	// Checkpoint is the full machine state at detection: a restored pipeline
	// single-steps straight into the wedge instead of re-running from cycle 0.
	Checkpoint *Checkpoint
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("pipeline: no instruction committed for %d cycles (detected at cycle %d, fetch pc %d)",
		e.Window, e.Cycle, e.PC)
}

// Is makes errors.Is(err, ErrDeadlock) succeed.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

func stateName(s int) string {
	switch s {
	case sDispatched:
		return "dispatched"
	case sIssued:
		return "issued"
	case sDone:
		return "done"
	}
	return fmt.Sprintf("state%d", s)
}

// snapshotROBEntries bounds the per-entry dump: the wedge is almost always
// visible at the ROB head, so the oldest entries carry the signal.
const snapshotROBEntries = 12

// Snapshot renders the machine state for crash forensics: cycle, front end,
// controller mode, LSU occupancy, and the oldest ROB entries with their
// state and readiness. It allocates freely — callers are on a failure path.
func (p *Pipeline) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d fetchPC=%d fetchq=%d stalled=%v rob=%d/%d lsu=%d/%d mode=%v region=%d resumeAt=%d\n",
		p.cycle, p.fetchPC, p.fetchLen(), p.fetchStalled, p.robLen(), p.Cfg.ROBSize,
		p.LSU.Len(), p.Cfg.LSQSize, p.Ctrl.Mode(), p.curInstance, p.resumeAt)
	for i, e := range p.robWin() {
		if i >= snapshotROBEntries {
			fmt.Fprintf(&b, "  (+%d more entries elided)\n", p.robLen()-i)
			break
		}
		fmt.Fprintf(&b, "  rob[%d] seq=%d pc=%d op=%s state=%s ready=%v faulted=%v region=%d\n",
			i, e.seq, e.pc, e.inst.Op.String(), stateName(e.state), p.ready(e), e.faulted, e.regionIdx)
	}
	if p.robLen() == 0 {
		fmt.Fprint(&b, "  (rob empty)\n")
	}
	return b.String()
}
