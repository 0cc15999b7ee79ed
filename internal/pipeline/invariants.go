package pipeline

import (
	"fmt"

	"srvsim/internal/core"
	"srvsim/internal/isa"
)

// Paranoid mode: when enabled (tests, diagnostic re-runs), structural
// invariants are checked after every cycle and violations panic with a typed
// InvariantError. The checks cover the properties the rest of the model
// silently relies on. The harness's recover boundary converts the panic into
// a classified SimError, so a violation fails one simulation, not the fleet.
func (p *Pipeline) EnableParanoid() { p.paranoid = true }

// InvariantError is the panic value raised by paranoid-mode checks. Check
// names the violated invariant class (stable identifiers, used by the
// harness's failure taxonomy and its tests).
type InvariantError struct {
	Check string // invariant class, e.g. "rob-order", "iq-capacity"
	Cycle int64
	Msg   string
}

func (e InvariantError) Error() string {
	return fmt.Sprintf("invariant %s violated at cycle %d: %s", e.Check, e.Cycle, e.Msg)
}

// InvariantChecks lists every invariant class paranoid mode enforces, in
// check order. Tests iterate it to assert each class survives the harness's
// recover boundary with its identity intact.
var InvariantChecks = []string{
	"rob-order", "rob-state", "rob-capacity", "iq-capacity", "lsq-capacity",
	"srv-end-serial", "ctrl-replay-clear", "ctrl-restart-pc",
	"ctrl-spec-replay", "ctrl-fallback-lanes", "rename-map",
}

func (p *Pipeline) violated(check, format string, args ...any) {
	panic(InvariantError{Check: check, Cycle: p.cycle, Msg: fmt.Sprintf(format, args...)})
}

func (p *Pipeline) checkInvariants() {
	// 1. ROB sequence numbers strictly increase and states are sane. The
	// scheduler's derived structures (incremental IQ count, operand counts,
	// wake chains and lists) must agree with a from-scratch scan.
	var prev int64 = -1
	dispatched := 0
	for i, e := range p.robWin() {
		if e.seq <= prev {
			p.violated("rob-order", "ROB seq not increasing at %d (%d after %d)", i, e.seq, prev)
		}
		prev = e.seq
		switch e.state {
		case sDispatched:
			dispatched++
		case sIssued, sDone:
		default:
			p.violated("rob-state", "bad state %d at seq %d", e.state, e.seq)
		}
	}
	// 2. Structural capacities.
	if p.robLen() > p.Cfg.ROBSize {
		p.violated("rob-capacity", "ROB %d > %d", p.robLen(), p.Cfg.ROBSize)
	}
	if dispatched > p.Cfg.IQSize {
		p.violated("iq-capacity", "IQ %d > %d", dispatched, p.Cfg.IQSize)
	}
	if dispatched != p.iqCount {
		p.violated("iq-capacity", "incremental IQ count %d != scanned %d", p.iqCount, dispatched)
	}
	p.checkScheduler()
	if p.LSU.Len() > p.Cfg.LSQSize {
		p.violated("lsq-capacity", "LSU %d > %d", p.LSU.Len(), p.Cfg.LSQSize)
	}
	// 3. srv_end instances never execute concurrently (serialisation); any
	// number may be dispatched-but-waiting.
	executing := 0
	for _, e := range p.robWin() {
		if e.inst.Op == isa.OpSRVEnd && e.state == sIssued {
			executing++
		}
	}
	if executing > 1 {
		p.violated("srv-end-serial", "%d srv_end executing concurrently", executing)
	}
	// 4. Controller consistency: an active speculative region has a restart
	// PC; outside regions both replay registers are clear.
	switch p.Ctrl.Mode() {
	case core.ModeOff:
		if p.Ctrl.Replay().Any() || p.Ctrl.NeedsReplay().Any() {
			p.violated("ctrl-replay-clear", "replay registers set outside a region")
		}
		if p.Ctrl.StartPC() != 0 {
			p.violated("ctrl-restart-pc", "restart PC set outside a region")
		}
	case core.ModeSpeculative:
		if !p.Ctrl.Replay().Any() {
			p.violated("ctrl-spec-replay", "speculative region with an empty SRV-replay register")
		}
	case core.ModeFallback:
		if p.Ctrl.Replay().Count() != 1 {
			p.violated("ctrl-fallback-lanes", "fallback pass must run exactly one lane (%d active)",
				p.Ctrl.Replay().Count())
		}
	}
	// 5. The rename table only points at live, uncommitted entries that
	// wrote the mapped register (nil slots mean the architectural file).
	// Committed entries are recycled through the pool, so a stale mapping
	// here would be a use-after-free, not just a bookkeeping slip.
	for i, e := range p.rename {
		if e == nil {
			continue
		}
		if !e.hasWrite || renameIdx(e.writeRef) != i || e.seq <= p.committedSeq {
			p.violated("rename-map", "rename[%d] points at a non-writer (pc %d)", i, e.pc)
		}
	}
}

// checkScheduler holds the wakeup/select state to a from-scratch scan of the
// ROB: every entry's operand counts equal its linked operands, each wake
// chain links exactly the operands that name its producer, and each list
// holds exactly, in seq order, the entries its definition selects.
func (p *Pipeline) checkScheduler() {
	var ready, inflight, drain, stores int
	var endIssued *robEntry
	links := 0
	for _, e := range p.robWin() {
		var pending, merge uint8
		srcs := e.srcs()
		for i := range srcs {
			if s := &srcs[i]; p.linked(s) {
				links++
				if s.mergeOnly {
					merge++
				} else {
					pending++
				}
			}
		}
		if pending != e.pending || merge != e.mergePending {
			p.violated("rob-state", "seq %d counts %d+%d pending operands, scan finds %d+%d",
				e.seq, e.pending, e.mergePending, pending, merge)
		}
		switch e.state {
		case sDispatched:
			if e.pending == 0 || e.inst.Op == isa.OpSRVEnd {
				ready++
			}
			if e.inst.IsStore() {
				stores++
			}
		case sIssued:
			if e.granted {
				inflight++
			} else {
				drain++
			}
			if e.inst.Op == isa.OpSRVEnd {
				endIssued = e
			}
		}
	}
	for _, e := range p.robWin() {
		for c, slot := e.wakeHead, e.wakeSlot; c != nil; {
			s := &c.pay.srcBuf[slot]
			if s.prod != e || !p.linked(s) {
				p.violated("rob-state", "wake chain of seq %d reaches a foreign operand of seq %d", e.seq, c.seq)
			}
			links--
			c, slot = s.next, s.nextSlot
		}
	}
	if links != 0 {
		p.violated("rob-state", "wake chains miss %d linked operands", links)
	}
	p.checkList("ready", p.readyList, ready, func(e *robEntry) bool {
		return e.state == sDispatched && (e.pending == 0 || e.inst.Op == isa.OpSRVEnd)
	})
	p.checkList("drain", p.drain, drain, func(e *robEntry) bool { return e.state == sIssued && !e.granted })
	p.checkList("stores", p.stores, stores, func(e *robEntry) bool { return e.state == sDispatched && e.inst.IsStore() })
	if len(p.inflight) != inflight {
		p.violated("rob-state", "in-flight list holds %d entries, ROB scan finds %d", len(p.inflight), inflight)
	}
	for _, e := range p.inflight {
		if e.state != sIssued || !e.granted {
			p.violated("rob-state", "in-flight list holds seq %d in state %s", e.seq, stateName(e.state))
		}
	}
	if p.endIssued != endIssued {
		p.violated("rob-state", "issued srv_end is not the one the ROB holds")
	}
}

// checkList checks a seq-ordered scheduler list against the count a ROB scan
// found and the predicate that defines its members.
func (p *Pipeline) checkList(name string, list []*robEntry, want int, member func(*robEntry) bool) {
	if len(list) != want {
		p.violated("rob-state", "%s list holds %d entries, ROB scan finds %d", name, len(list), want)
	}
	for i, e := range list {
		if !member(e) || (i > 0 && list[i-1].seq >= e.seq) {
			p.violated("rob-state", "%s list entry %d (seq %d) misplaced", name, i, e.seq)
		}
	}
}
