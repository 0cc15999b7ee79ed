package core

import (
	"fmt"

	"srvsim/internal/isa"
)

// Mode is the execution mode of the SRV controller.
type Mode int

const (
	// ModeOff: executing outside any SRV region; SRV logic is power-gated.
	ModeOff Mode = iota
	// ModeSpeculative: inside a region with all-lane speculative execution
	// and selective replay.
	ModeSpeculative
	// ModeFallback: inside a region re-executed sequentially, one lane per
	// pass, after an LSU overflow (paper §III-D7).
	ModeFallback
)

func (m Mode) String() string {
	switch m {
	case ModeSpeculative:
		return "speculative"
	case ModeFallback:
		return "fallback"
	default:
		return "off"
	}
}

// EndAction tells the pipeline what to do when srv_end executes.
type EndAction int

const (
	// EndCommit: no lanes need replay; commit speculative stores, leave the
	// region.
	EndCommit EndAction = iota
	// EndReplay: jump back to the instruction after srv_start and re-execute
	// the lanes now in the SRV-replay register.
	EndReplay
	// EndNextLane: fallback mode — commit the current lane and start the
	// next pass.
	EndNextLane
)

// Stats counts controller events for the evaluation figures.
type Stats struct {
	Regions     int64 // completed SRV regions
	VectorIters int64 // region passes including replays (Fig 9 denominator)
	Replays     int64 // replay rounds
	ReplayLanes int64 // lanes re-executed over all replays
	RAWViol     int64 // horizontal RAW violations recorded
	WARViol     int64 // horizontal WAR violations (forwarding suppressed)
	WAWViol     int64 // horizontal WAW violations (selective write-back)
	Fallbacks   int64 // regions demoted to sequential execution
	Interrupts  int64 // regions suspended for interrupt/context switch
	ExcReplays  int64 // lanes re-marked due to exceptions on younger lanes
}

// Controller owns the SRV architectural state added by the paper: the
// SRV-replay register, the SRV-needs-replay register, and the PC of the
// instruction following srv_start (paper §III-D2). A zero Controller is
// ready to use, outside any region.
type Controller struct {
	mode    Mode
	startPC int // PC of the instruction after srv_start; 0 means "normal execution"
	dir     isa.Direction

	replay      isa.Pred // lanes executing in the current pass
	needsReplay isa.Pred // sticky bits: lanes to re-execute after srv_end

	fallbackLane int // current lane in ModeFallback

	prevMinLane int // for the monotonic-replay-frontier invariant

	Stats Stats
}

// Mode returns the current execution mode.
func (c *Controller) Mode() Mode { return c.mode }

// InRegion reports whether execution is inside an SRV region.
func (c *Controller) InRegion() bool { return c.mode != ModeOff }

// StartPC returns the recorded restart PC (0 outside a region).
func (c *Controller) StartPC() int { return c.startPC }

// Dir returns the region's iteration-ordering attribute.
func (c *Controller) Dir() isa.Direction { return c.dir }

// Replay returns the SRV-replay register.
func (c *Controller) Replay() isa.Pred { return c.replay }

// NeedsReplay returns the SRV-needs-replay register.
func (c *Controller) NeedsReplay() isa.Pred { return c.needsReplay }

// ActiveLane reports whether a lane executes in the current pass.
func (c *Controller) ActiveLane(l int) bool { return c.replay[l] }

// OldestActiveLane returns the oldest lane set in the SRV-replay register;
// that lane is non-speculative (paper §III-D2).
func (c *Controller) OldestActiveLane() int { return c.replay.Oldest() }

// Start enters a speculative region. nextPC is the PC of the instruction
// following srv_start. Nesting is an architectural error (paper §III-A).
func (c *Controller) Start(nextPC int, dir isa.Direction) error {
	if c.mode != ModeOff {
		return fmt.Errorf("core: srv_start inside an SRV region (regions cannot nest)")
	}
	c.mode = ModeSpeculative
	c.startPC = nextPC
	c.dir = dir
	c.replay = isa.AllTrue()
	c.needsReplay = isa.Pred{}
	c.prevMinLane = -1
	c.Stats.VectorIters++
	return nil
}

// RecordRAW ORs horizontally violating lanes into the sticky
// SRV-needs-replay register.
func (c *Controller) RecordRAW(lanes isa.Pred) {
	any := false
	for i, b := range lanes {
		if b {
			c.needsReplay[i] = true
			any = true
		}
	}
	if any {
		c.Stats.RAWViol++
	}
}

// RecordWAR counts a WAR violation (resolved immediately by forwarding
// suppression; no architectural state changes).
func (c *Controller) RecordWAR() { c.Stats.WARViol++ }

// RecordWAW counts a WAW violation (resolved at commit by selective
// write-back).
func (c *Controller) RecordWAW() { c.Stats.WAWViol++ }

// End processes srv_end and returns the action the pipeline must take. On
// EndReplay the SRV-replay register has been loaded from SRV-needs-replay.
func (c *Controller) End() EndAction {
	switch c.mode {
	case ModeFallback:
		if c.fallbackLane == isa.NumLanes-1 {
			c.leave()
			return EndCommit
		}
		c.fallbackLane++
		c.replay = isa.Pred{}
		c.replay[c.fallbackLane] = true
		return EndNextLane
	case ModeSpeculative:
		if !c.needsReplay.Any() {
			c.leave()
			return EndCommit
		}
		min := c.needsReplay.Oldest()
		if c.prevMinLane >= 0 && min <= c.prevMinLane {
			// The replay frontier must advance strictly or replay could
			// loop forever; the disambiguation rules guarantee it
			// (stores only flag strictly later lanes).
			panic(fmt.Sprintf("core: replay frontier did not advance (%d -> %d)", c.prevMinLane, min))
		}
		c.prevMinLane = min
		c.replay = c.needsReplay
		c.needsReplay = isa.Pred{}
		c.Stats.Replays++
		c.Stats.ReplayLanes += int64(c.replay.Count())
		c.Stats.VectorIters++
		return EndReplay
	default:
		panic("core: srv_end outside an SRV region")
	}
}

func (c *Controller) leave() {
	c.mode = ModeOff
	c.startPC = 0
	c.replay = isa.Pred{}
	c.needsReplay = isa.Pred{}
	c.Stats.Regions++
}

// EnterFallback demotes the current region to sequential execution after an
// LSU overflow: the region is re-executed once per lane, oldest first, with
// only that lane active (paper §III-D7). The pipeline must flush and restart
// from StartPC.
func (c *Controller) EnterFallback() {
	if c.mode != ModeSpeculative {
		panic("core: fallback outside a speculative region")
	}
	c.mode = ModeFallback
	c.fallbackLane = 0
	c.replay = isa.Pred{}
	c.replay[0] = true
	c.needsReplay = isa.Pred{}
	c.Stats.Fallbacks++
}

// FallbackLane returns the lane executing in the current fallback pass.
func (c *Controller) FallbackLane() int { return c.fallbackLane }

// Abort discards a speculatively entered region without counting a
// completion: used when an interrupt or a vertical squash arrives after
// srv_start executed but before it committed, so the region never
// architecturally began and will be re-entered from scratch. The pass Start
// counted is taken back: the re-entry counts it again.
func (c *Controller) Abort() {
	c.Stats.VectorIters--
	c.mode = ModeOff
	c.startPC = 0
	c.replay = isa.Pred{}
	c.needsReplay = isa.Pred{}
}

// Saved captures the architectural SRV state across an interrupt or context
// switch: the current PC, the SRV-replay register and the restart PC are
// sufficient to resume (paper §III-D2).
type Saved struct {
	CurrentPC int
	StartPC   int
	Replay    isa.Pred
	Dir       isa.Direction
}

// Suspend captures state for an interrupt inside a region and resets the
// controller. The caller must write back all non-speculative LSU data first
// (the oldest active lane up to CurrentPC plus all older lanes) and discard
// speculative content.
func (c *Controller) Suspend(currentPC int) Saved {
	s := Saved{CurrentPC: currentPC, StartPC: c.startPC, Replay: c.replay, Dir: c.dir}
	c.mode = ModeOff
	c.startPC = 0
	c.replay = isa.Pred{}
	c.needsReplay = isa.Pred{}
	c.Stats.Interrupts++
	return s
}

// Resume restores a suspended region per paper §III-D2: only the oldest lane
// of the saved SRV-replay register resumes execution (from s.CurrentPC);
// every younger lane is marked in SRV-needs-replay so that it re-executes
// the whole region after srv_end.
func (c *Controller) Resume(s Saved) {
	if c.mode != ModeOff {
		panic("core: resume while already in a region")
	}
	c.mode = ModeSpeculative
	c.startPC = s.StartPC
	c.dir = s.Dir
	oldest := s.Replay.Oldest()
	c.replay = isa.Pred{}
	c.needsReplay = isa.Pred{}
	if oldest < isa.NumLanes {
		c.replay[oldest] = true
		for l := oldest + 1; l < isa.NumLanes; l++ {
			c.needsReplay[l] = true
		}
	}
	// The frontier restarts: the resumed pass runs only the oldest lane.
	c.prevMinLane = -1
	c.Stats.VectorIters++
}

// MarkExceptionLanes handles an exception raised by lane l that is not the
// oldest active lane: that lane and all younger ones are marked for
// re-execution, guarding against exceptions caused by erroneous data
// (paper §III-D3). It reports whether the exception must be taken now
// (true only when l is the oldest active lane).
func (c *Controller) MarkExceptionLanes(l int) bool {
	if c.mode == ModeOff {
		return true
	}
	if l == c.OldestActiveLane() {
		return true
	}
	for k := l; k < isa.NumLanes; k++ {
		c.needsReplay[k] = true
	}
	c.Stats.ExcReplays++
	return false
}
