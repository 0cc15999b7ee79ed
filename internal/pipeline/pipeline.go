package pipeline

import (
	"context"
	"fmt"

	"srvsim/internal/core"
	"srvsim/internal/isa"
	"srvsim/internal/lsu"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/predictor"
)

// entry states.
const (
	sDispatched = iota
	sIssued
	sDone
)

// src links an operand to its producing in-flight instruction (nil producer
// means the architectural register file holds the value).
type src struct {
	prod *robEntry
	// prodSeq is prod's identity at capture: once committedSeq passes it the
	// producer's value lives in the architectural file and prod must not be
	// dereferenced (the entry may have been recycled for a new instruction).
	prodSeq int64
	// next and nextSlot thread this operand onto prod's wake chain while
	// prod is in flight (robEntry.wakeHead): the operand srcs()[nextSlot] of
	// next is the chain's following link.
	next     *robEntry
	nextSlot uint8
	ri       uint8 // rename index of the register read (renameIdx)
	// mergeOnly marks an old-destination read added solely for SRV-replay
	// merging of an unpredicated in-region write: when the SRV-replay
	// register is fully set, every lane is overwritten and the old value is
	// not consumed, so the dependency is waived (the mask only changes at
	// the srv_end serialisation point, so this is safe to evaluate at issue).
	mergeOnly bool
}

// robEntry holds an in-flight instruction's control state; the bulky
// per-entry data lives in pay, which survives reuse (freeEntry).
type robEntry struct {
	seq   int64
	pc    int
	inst  *isa.Inst
	state int
	cls   opClass // inst's class bits, cached at dispatch
	fu    fuKind  // inst's functional-unit class, cached at dispatch

	// Region bookkeeping: regionIdx is the SRV region instance this
	// instruction belongs to (-1 outside); the After fields snapshot the
	// dispatcher's region state after this instruction, for squash rollback.
	regionIdx          int
	regionCounterAfter int
	inRegionAfter      bool
	fallback           bool // dispatched while the region ran in fallback mode

	nsrc          uint8 // operands in pay.srcBuf
	hasWrite      bool
	writeRef      isa.RegRef
	prevWriter    *robEntry // rename rollback: previous producer of writeRef
	prevWriterSeq int64     // identity guard, as src.prodSeq

	// Wakeup: pending counts the operands whose producer has not completed,
	// merge-only operands apart in mergePending (they are waived when the
	// SRV-replay mask is full). wakeHead/wakeSlot head the chain of consumer
	// operands complete() decrements when this entry finishes; consumers
	// link at the head at dispatch, so the chain runs youngest-first.
	pending, mergePending uint8
	wakeSlot              uint8
	wakeHead              *robEntry

	doneAt int64

	// Result (valid once state >= sIssued); vector and predicate results
	// live in pay.
	sclRes int64

	// Branch state.
	predTaken  bool
	predTarget int

	// Memory state. lsuEntries is backed by pay.lsuBuf, one entry per lane
	// for gathers and scatters, so reserving them never allocates.
	lsuEntries []*lsu.Entry
	memElems   int // port slots still to drain
	cacheLat   int
	granted    bool // all port slots granted; doneAt fixed

	// Stage cycles for the timeline (recorded when enabled).
	fetchAt, dispatchAt, issueAt int64

	// faulted marks an instruction that raised a memory exception in its
	// oldest active lane: it blocks commit (and srv_end) until the fault is
	// delivered precisely at the ROB head (§III-D3).
	faulted   bool
	faultAddr uint64

	pay *entryPayload
}

// entryPayload is the bulky part of a ROB entry. Only the first nsrc
// operands and the first len(lsuEntries) LSU pointers are meaningful, so
// reuse never clears them. vecRes and predRes stay zero except in an
// entry that writes a vector or predicate register and has issued:
// freeEntry zeroes exactly those, so checkpoints see the zeros a fresh
// entry would show.
type entryPayload struct {
	srcBuf  [6]src
	vecRes  isa.Vec
	predRes isa.Pred
	lsuBuf  [isa.NumLanes]*lsu.Entry
}

// entrySlot keeps an entry and its payload in one allocation.
type entrySlot struct {
	e   robEntry
	pay entryPayload
}

// srcs returns the entry's operands.
func (e *robEntry) srcs() []src { return e.pay.srcBuf[:e.nsrc] }

// renameSlots flattens the register namespace for the producer table:
// scalars first, then vectors, then predicates.
const renameSlots = isa.NumSclRegs + isa.NumVecRegs + isa.NumPredReg

func renameIdx(r isa.RegRef) int {
	switch r.Class {
	case isa.RegScalar:
		return r.Idx
	case isa.RegVector:
		return isa.NumSclRegs + r.Idx
	default:
		return isa.NumSclRegs + isa.NumVecRegs + r.Idx
	}
}

// renameRef inverts renameIdx.
func renameRef(ri int) isa.RegRef {
	switch {
	case ri < isa.NumSclRegs:
		return isa.S(ri)
	case ri < isa.NumSclRegs+isa.NumVecRegs:
		return isa.V(ri - isa.NumSclRegs)
	default:
		return isa.P(ri - isa.NumSclRegs - isa.NumVecRegs)
	}
}

// refRenameIdx is renameIdx for an untrusted register reference: ok is false
// when r names no architectural register.
func refRenameIdx(r isa.RegRef) (ri int, ok bool) {
	n := isa.NumPredReg
	switch r.Class {
	case isa.RegScalar:
		n = isa.NumSclRegs
	case isa.RegVector:
		n = isa.NumVecRegs
	case isa.RegPred:
	default:
		return 0, false
	}
	if r.Idx < 0 || r.Idx >= n {
		return 0, false
	}
	return renameIdx(r), true
}

// Pipeline is the simulated core.
type Pipeline struct {
	Cfg   Config
	Prog  *isa.Program
	Mem   *mem.Image
	Hier  *mem.Hierarchy
	Ctrl  *core.Controller
	LSU   *lsu.LSU
	BP    *predictor.Branch
	SS    *predictor.StoreSet
	Stats Stats

	// Architectural state.
	S  [isa.NumSclRegs]int64
	Vr [isa.NumVecRegs]isa.Vec
	Pr [isa.NumPredReg]isa.Pred

	// The ROB is a FIFO window over a reusable backing array: live entries
	// are rob[robHead:], commit advances robHead, and pushROB compacts the
	// dead prefix before growing, so steady state never reallocates.
	rob     []*robEntry
	robHead int

	// The scheduler's lists (wakeup.go). Each holds only the entries one
	// stage can act on, so no stage scans the window:
	//   - readyList: seq-ordered dispatched entries whose non-merge
	//     operands are all complete, plus every dispatched srv_end (a
	//     barrier whatever its operands); issue selects from it;
	//   - endIssued: the one srv_end that has issued and not completed;
	//   - inflight: issued entries with every port slot granted, waiting
	//     for doneAt; complete walks it;
	//   - drain: seq-ordered issued gathers/scatters still draining element
	//     accesses through the ports;
	//   - stores: seq-ordered dispatched stores, for load ordering.
	readyList []*robEntry
	endIssued *robEntry
	inflight  []*robEntry
	drain     []*robEntry
	stores    []*robEntry

	// iqCount tracks the dispatched-not-yet-issued population incrementally
	// (dispatch ++, execute --, squash adjusts), making the per-slot IQ
	// capacity check O(1).
	iqCount int

	// rename is a flat register-indexed producer table (scalars, vectors,
	// then predicates); nil means the architectural file holds the value.
	// Entries here are always live and uncommitted: commit clears its own
	// mapping, and squash rollback discards already-committed prev-writers.
	rename  [renameSlots]*robEntry
	nextSeq int64
	cycle   int64

	// committedSeq is the seq of the youngest committed instruction. It
	// gates every deref of a captured producer pointer: entries at or below
	// it have their results in the architectural file and may have been
	// recycled through entryPool.
	committedSeq int64

	// entryPool recycles retired/squashed robEntries so dispatch allocates
	// nothing (GC scan cost dominated the tick core). New fills it from one
	// slab of Cfg.ROBSize entries, the most the ROB can hold, up to maxSlab.
	entryPool []*robEntry

	fetchPC      int
	fetchStalled bool // stop fetching (after halt or program end)
	// The fetch queue: a fixed ring of fetchQueueCap(Cfg) slots (fetchq.go).
	fetchq fetchQueue

	// decode holds the dispatch-time decoding of each program instruction.
	decode []decodedInst

	// fullMask caches "in a region with a full SRV-replay mask" across one
	// issue scan; readySrcs consults it for every merge-only source, and
	// issue recomputes it after each execute (which can change it).
	fullMask bool

	// stepQuiet is true after a step that performed no work: nothing was
	// fetched, dispatched, issued, drained, completed, committed or counted.
	// The event-driven scheduler may then advance time straight to the next
	// wake event (scheduler.go).
	stepQuiet bool

	// Dispatcher region state.
	dispRegionCounter int
	dispInRegion      bool

	// Current architecturally started region.
	curInstance int
	curStartSeq int64 // seq of the srv_start that opened it
	halted      bool
	haltSeen    bool

	// Interrupt injection (tests / examples).
	intrAt   int64 // cycle to take an interrupt; 0 = none
	intrDur  int64
	resumeAt int64 // front-end frozen until this cycle
	savedSRV core.Saved
	resuming bool

	// Fault injection: accesses whose element address is in FaultAddrs
	// raise a memory exception (e.g. an unmapped page). Servicing a fault
	// removes the address and costs FaultServiceCycles.
	FaultAddrs         map[uint64]bool
	FaultServiceCycles int64

	// Stage-timeline recording (pipeview). Once the cap is reached further
	// committed instructions are counted in timelineDropped instead of
	// silently discarded.
	recordTimeline  bool
	timeline        []TimelineEntry
	timelineDropped int64

	// Observability (internal/obsv): the lazily-built metrics registry, the
	// region-duration histogram behind it, and the optional tracer/sampler.
	// tracer and sampler are nil unless attached; the hot path pays one
	// branch per cycle for each.
	metrics    *obsv.Registry
	regionHist *obsv.Histogram

	tracer         *obsv.Tracer
	tracePassStart int64
	tracePassNum   int

	sampler             *obsv.Sampler
	sampleEvery         int64
	lastSampleCommitted int64

	// Per-PC replay attribution (EnableReplayProfile); nil by default, and
	// every hook guards on that nil so the hot path pays one branch per
	// region event, no allocation.
	prof *replayProfile

	// Scratch buffer for memLatency's distinct-line dedup.
	lineScratch []uint64
	// Scratch buffer collecting a gather's memory-sourced byte addresses
	// across its lanes. Each lane's LoadResult.MemAddrs aliases an LSU
	// buffer the next ExecLoad overwrites, so lanes are copied in.
	gatherAddrs []uint64

	// Region durations: cycles from srv_start execution to region commit
	// (including replays), observed into regionHist at each commit.
	regionStartCycle int64

	// Paranoid mode: check structural invariants after every cycle.
	paranoid bool

	// Chaos/test hook: from this cycle on commit retires nothing, wedging
	// the machine so the forward-progress watchdog can be exercised on
	// otherwise-healthy programs. 0 = disabled.
	wedgeAt int64

	// tickRef selects the per-cycle reference scheduler over the default
	// event-driven one (UseReferenceTickCore).
	tickRef bool

	// Periodic checkpointing (checkpoint.go): with a sink installed and
	// Cfg.CheckpointEvery > 0, RunContext emits a full machine checkpoint at
	// the first cancellation-poll boundary at least CheckpointEvery cycles
	// after the previous emission. ckptLastAt anchors the cadence; Restore
	// sets it to the restored cycle so a resumed run continues the original
	// rhythm.
	ckptSink   func(*Checkpoint)
	ckptLastAt int64

	// Restore hands the captured watchdog anchor to the next RunContext
	// through these, so a restored run trips the forward-progress watchdog
	// at the exact cycle the uninterrupted run would have.
	restoredProgress     bool
	restoredLastProgress int64
}

// maxSlab caps the ROB entries New builds up front. ROBSize comes from a
// request's configuration, so a ROB larger than any the evaluation uses
// allocates its entries past the slab lazily instead of all at once.
const maxSlab = 1024

// New builds a pipeline over prog with fresh architectural state.
func New(cfg Config, prog *isa.Program, image *mem.Image) *Pipeline {
	ctrl := &core.Controller{}
	p := &Pipeline{
		Cfg:         cfg,
		Prog:        prog,
		Mem:         image,
		Hier:        mem.DefaultHierarchy(),
		Ctrl:        ctrl,
		BP:          predictor.NewBranch(predictor.DefaultBranchConfig()),
		SS:          predictor.NewStoreSet(1024, 128),
		curInstance: -1,
		regionHist:  obsv.NewHistogram(obsv.PowersOfTwo(17)...),
	}
	p.Hier.NextLinePrefetch = cfg.Prefetch
	image.IndexPages()
	p.LSU = lsu.New(cfg.LSQSize, image, ctrl)
	p.decode = decodeProgram(prog)
	p.fetchq = newFetchQueue(fetchQueueCap(cfg))
	p.lineScratch = make([]uint64, 0, 8*isa.NumLanes)
	p.gatherAddrs = make([]uint64, 0, 8*isa.NumLanes)
	// One pointer array backs the ROB, the entry pool and the scheduler
	// lists, each capped at n: none can hold more than the ROB does, so none
	// grows while the ROB fits the slab.
	n := min(max(cfg.ROBSize, 0), maxSlab)
	lists := make([]*robEntry, 6*n)
	carve := func(i int) []*robEntry { return lists[i*n : i*n : (i+1)*n] }
	p.rob, p.readyList, p.inflight, p.drain, p.stores = carve(0), carve(1), carve(2), carve(3), carve(4)
	slab := make([]entrySlot, n)
	p.entryPool = lists[5*n : 6*n : 6*n]
	for i := range slab {
		s := &slab[len(slab)-1-i] // allocEntry pops slab[0] first
		s.e.pay = &s.pay
		p.entryPool[i] = &s.e
	}
	return p
}

// ScheduleInterrupt injects an interrupt at the given cycle, freezing the
// front end for dur cycles (the handler's cost) before resuming per §III-D2.
func (p *Pipeline) ScheduleInterrupt(at, dur int64) {
	p.intrAt, p.intrDur = at, dur
}

// InjectWedge is a chaos/test hook: from the given cycle on, commit retires
// nothing, so the machine stops making forward progress while still cycling
// — the synthetic livelock the watchdog exists to catch.
func (p *Pipeline) InjectWedge(cycle int64) { p.wedgeAt = cycle }

// UseReferenceTickCore forces the per-cycle reference scheduler: every
// cycle runs a full step with no quiet-stretch skipping. The event-driven
// scheduler must be bit-identical to this core on every observable output;
// the cross-core equivalence suite holds it to that contract.
func (p *Pipeline) UseReferenceTickCore() { p.tickRef = true }

// DefaultWatchdogCycles is the forward-progress window when
// Config.WatchdogCycles is 0: generous enough that no legitimate commit gap
// (cache-miss chains, fault service, interrupt freezes) approaches it, yet
// 0.05% of the default 2-billion-cycle budget, so a wedged pipeline is
// diagnosed with a machine snapshot instead of burning out the budget.
const DefaultWatchdogCycles = 1_000_000

// cancelCheckMask throttles the cancellation poll to every 4096th cycle.
const cancelCheckMask = 1<<12 - 1

// Run simulates until Halt commits. Abnormal exits are typed: an exhausted
// budget wraps ErrCycleBudget, a commit-free watchdog window returns a
// *DeadlockError (errors.Is ErrDeadlock) carrying a machine snapshot, and a
// cancelled context (RunContext) wraps ErrCancelled.
func (p *Pipeline) Run() error { return p.RunContext(context.Background()) }

// RunContext is Run under a caller-supplied context: cancellation and
// deadlines are polled every cancelCheckMask+1 cycles and abort the
// simulation with an ErrCancelled-wrapped error naming the context's cause,
// preserving the PR 2 failure taxonomy (classify maps it to KindRunError
// with full attribution).
func (p *Pipeline) RunContext(ctx context.Context) error {
	max := p.Cfg.MaxCycles
	if max == 0 {
		max = 2_000_000_000
	}
	wd := p.Cfg.WatchdogCycles
	if wd == 0 {
		wd = DefaultWatchdogCycles
	}
	committed := p.Stats.Committed
	lastProgress := p.cycle
	if p.restoredProgress {
		lastProgress = p.restoredLastProgress
		p.restoredProgress = false
	}
	for !p.halted {
		if p.cycle >= max {
			p.Stats.Cycles = p.cycle
			return fmt.Errorf("%w: %d cycles at pc %d (rob=%d)", ErrCycleBudget, max, p.fetchPC, p.robLen())
		}
		if p.cycle&cancelCheckMask == 0 {
			if ctx.Err() != nil {
				p.Stats.Cycles = p.cycle
				return fmt.Errorf("%w at cycle %d: %v", ErrCancelled, p.cycle, context.Cause(ctx))
			}
			// Periodic checkpoint emission shares the poll boundary: both
			// schedulers visit every boundary (quietTarget clamps to them),
			// so emitted cycles are identical across cores. With no sink the
			// default path pays only this one predictable branch.
			if p.ckptSink != nil {
				if every := p.Cfg.CheckpointEvery; every > 0 && p.cycle-p.ckptLastAt >= every {
					p.ckptLastAt = p.cycle
					p.Stats.Cycles = p.cycle
					p.ckptSink(p.checkpoint(lastProgress))
				}
			}
		}
		p.step()
		// Forward progress = an instruction committed, or the front end is
		// in a legitimate interrupt/fault freeze (bounded by resumeAt).
		if p.Stats.Committed != committed || p.resumeAt > p.cycle {
			committed = p.Stats.Committed
			lastProgress = p.cycle
		} else if wd > 0 && p.cycle-lastProgress >= wd {
			p.Stats.Cycles = p.cycle
			return &DeadlockError{Cycle: p.cycle, Window: wd, PC: p.fetchPC,
				Snapshot: p.Snapshot(), Checkpoint: p.checkpoint(lastProgress)}
		}
		// Event-driven scheduling: after a step that did no work, advance
		// time straight to the next wake event instead of ticking through
		// the dead stretch (scheduler.go). The reference tick core never
		// skips.
		if p.stepQuiet && !p.tickRef && !p.halted {
			if target := p.quietTarget(max, wd, lastProgress); target > p.cycle {
				p.advanceQuiet(target)
				if p.resumeAt > p.cycle {
					lastProgress = p.cycle // frozen cycles count as progress
				}
			}
		}
	}
	p.Stats.Cycles = p.cycle
	return nil
}

// robWin returns the live ROB entries, oldest first.
func (p *Pipeline) robWin() []*robEntry { return p.rob[p.robHead:] }

func (p *Pipeline) robLen() int { return len(p.rob) - p.robHead }

func (p *Pipeline) fetchLen() int { return p.fetchq.len() }

// pushROB appends to the ROB window, compacting the committed prefix of the
// backing array before it would otherwise have to grow.
func (p *Pipeline) pushROB(e *robEntry) {
	if p.robHead > 0 && len(p.rob) == cap(p.rob) {
		n := copy(p.rob, p.rob[p.robHead:])
		for i := n; i < len(p.rob); i++ {
			p.rob[i] = nil
		}
		p.rob = p.rob[:n]
		p.robHead = 0
	}
	p.rob = append(p.rob, e)
}

// allocEntry takes a reset robEntry from the pool, or a fresh one should
// the pool ever run dry.
func (p *Pipeline) allocEntry() *robEntry {
	if n := len(p.entryPool); n > 0 {
		e := p.entryPool[n-1]
		p.entryPool[n-1] = nil
		p.entryPool = p.entryPool[:n-1]
		return e
	}
	s := new(entrySlot)
	s.e.pay = &s.pay
	return &s.e
}

// freeEntry recycles a retired or squashed entry. The caller guarantees no
// live structure will dereference it again: rename and the scheduler lists
// drop their pointers before the free, and captured prod/prevWriter
// pointers are gated by their seq guards.
//
// Only what dispatch and Restore do not always set is reset, field by
// field, together with the results this entry wrote (entryPayload): that
// skips clearing the whole entry, and the pointer stores a bulk clear would
// pass through the GC write barrier. A field added to robEntry must be
// reset here unless every allocEntry caller sets it.
func (p *Pipeline) freeEntry(e *robEntry) {
	if e.hasWrite {
		switch e.writeRef.Class {
		case isa.RegVector:
			e.pay.vecRes = isa.Vec{}
		case isa.RegPred:
			e.pay.predRes = isa.Pred{}
		}
		e.hasWrite, e.writeRef, e.prevWriterSeq = false, isa.RegRef{}, 0
		if e.prevWriter != nil {
			e.prevWriter = nil
		}
	}
	if e.wakeHead != nil {
		e.wakeHead = nil // squashed before completing
	}
	e.seq, e.state, e.fallback, e.nsrc = 0, sDispatched, false, 0
	e.pending, e.mergePending, e.wakeSlot = 0, 0, 0
	e.doneAt, e.sclRes, e.issueAt = 0, 0, 0
	e.memElems, e.cacheLat, e.granted = 0, 0, false
	e.faulted, e.faultAddr = false, 0
	p.entryPool = append(p.entryPool, e)
}

func (p *Pipeline) step() {
	p.cycle++
	// Stats.Cycles stays coherent mid-run so crash forensics (deadlock
	// snapshots, sampler rows, paranoid panics) report the true cycle count
	// instead of whatever the last exit path left behind.
	p.Stats.Cycles = p.cycle
	p.stepQuiet = true
	if p.sampleEvery > 0 || p.tracer != nil {
		p.observeCycle()
	}
	if p.intrAt > 0 && p.cycle >= p.intrAt && p.interruptSafe() {
		p.takeInterrupt()
		p.intrAt = 0
	}
	if p.resumeAt > 0 {
		if p.cycle < p.resumeAt {
			return
		}
		p.stepQuiet = false
		p.resumeAt = 0
		if p.resuming {
			p.Ctrl.Resume(p.savedSRV)
			p.profResume()
			p.resuming = false
		}
	}
	// Precise exception delivery: the faulting instruction has reached the
	// ROB head with every older instruction committed (§III-D3).
	if p.robLen() > 0 && p.rob[p.robHead].faulted {
		p.deliverFault()
		return
	}
	p.commit()
	p.complete()
	p.issue()
	p.dispatch()
	p.fetch()
	if p.paranoid {
		p.checkInvariants()
	}
}

// raiseFault is called at execute time when an access in the instruction's
// oldest active lane hits a faulting address: the instruction stalls commit
// until it reaches the ROB head, where the fault is taken precisely.
func (p *Pipeline) raiseFault(e *robEntry, addr uint64) {
	e.faulted = true
	e.faultAddr = addr
}

// deliverFault services the fault at the ROB head: the address becomes
// mappable, the pipeline flushes, and execution resumes at the faulting
// instruction — through the §III-D2 save/resume path when inside a region.
func (p *Pipeline) deliverFault() {
	p.stepQuiet = false
	e := p.rob[p.robHead]
	p.Stats.Exceptions++
	if p.tracer != nil {
		p.traceInstant("fault", map[string]any{"pc": e.pc, "addr": e.faultAddr})
	}
	delete(p.FaultAddrs, e.faultAddr)
	p.profSuspend()
	committedSeq := e.seq - 1
	if p.Ctrl.InRegion() && e.pc >= p.Ctrl.StartPC() {
		mode := p.Ctrl.Mode()
		saved := p.Ctrl.Suspend(e.pc)
		if mode == core.ModeSpeculative {
			p.LSU.WritebackNonSpec(p.curInstance, saved.Replay.Oldest(), e.pc)
		}
		p.savedSRV = saved
		p.resuming = true
		p.squashAfter(committedSeq)
		p.dispRegionCounter++
		p.curInstance = p.dispRegionCounter
		p.dispInRegion = true
		p.curStartSeq = committedSeq
		p.redirect(saved.CurrentPC)
	} else {
		if p.Ctrl.InRegion() {
			p.Ctrl.Abort()
			p.LSU.DiscardRegion(p.curInstance)
			p.curInstance = -1
		}
		p.squashAfter(committedSeq)
		p.dispInRegion = false
		p.redirect(e.pc)
	}
	dur := p.FaultServiceCycles
	if dur <= 0 {
		dur = 30
	}
	p.resumeAt = p.cycle + dur
}

// ---- Fetch ----

// fetch follows the predicted path for up to Width instructions, stopping
// after a predicted-taken branch or a halt, or once the fetch queue is full.
func (p *Pipeline) fetch() {
	if p.fetchStalled {
		return
	}
	p.stepQuiet = false
	readyAt := p.cycle + int64(p.Cfg.FrontEndDelay)
	for n := 0; n < p.Cfg.Width && !p.fetchq.full(); n++ {
		if p.fetchPC < 0 || p.fetchPC >= p.Prog.Len() {
			p.fetchStalled = true
			break
		}
		pc := p.fetchPC
		in := p.Prog.At(pc)
		taken, target, stop := false, 0, false
		switch {
		case in.Op == isa.OpHalt:
			p.fetchStalled = true
			stop = true
		case in.Op == isa.OpJmp:
			taken, target = true, in.Tgt
			p.fetchPC = in.Tgt
			stop = true // taken-branch fetch break
		case in.IsCondBranch():
			var hit bool
			taken, target, hit = p.BP.Predict(p.fetchPC)
			if !hit {
				taken, target = false, p.fetchPC+1
			} else if taken {
				// BTB target used only on predicted-taken.
			} else {
				target = p.fetchPC + 1
			}
			p.fetchPC = target
			stop = taken
		default:
			p.fetchPC++
		}
		p.fetchq.push(FetchSlot{PC: pc, ReadyAt: readyAt, PredTaken: taken, PredTarget: target})
		if stop {
			break
		}
	}
}

// ---- Dispatch ----

func (p *Pipeline) dispatch() {
	for n := 0; n < p.Cfg.Width; n++ {
		if p.fetchq.len() == 0 || p.fetchq.frontReadyAt() > p.cycle {
			return
		}
		if p.robLen() >= p.Cfg.ROBSize {
			p.stepQuiet = false
			p.Stats.DispatchStallROB++
			return
		}
		if p.iqCount >= p.Cfg.IQSize {
			p.stepQuiet = false
			p.Stats.DispatchStallIQ++
			return
		}
		slot := p.fetchq.front()
		in := p.Prog.At(slot.PC)

		e := p.allocEntry()
		e.seq = p.nextSeq + 1
		d := &p.decode[slot.PC]
		e.pc = slot.PC
		e.inst = in
		e.cls, e.fu = d.cls, d.fu
		e.regionIdx = -1
		e.predTaken = slot.PredTaken
		e.predTarget = slot.PredTarget
		e.fetchAt = slot.ReadyAt - int64(p.Cfg.FrontEndDelay)
		e.dispatchAt = p.cycle
		e.lsuEntries = e.pay.lsuBuf[:0]
		if p.dispInRegion {
			e.regionIdx = p.dispRegionCounter
			// Fallback dispatch applies only to the region instance that is
			// currently executing in fallback mode — instructions of the
			// NEXT region fetched ahead must reserve speculative entries.
			e.fallback = p.Ctrl.Mode() == core.ModeFallback &&
				p.dispRegionCounter == p.curInstance
		}

		// Reserve LSU entries before committing to dispatch.
		if e.is(clMem) {
			instance := lsu.NoInstance
			if e.regionIdx >= 0 && !e.fallback {
				instance = e.regionIdx
			}
			if !p.reserveLSU(e, instance) {
				p.freeEntry(e) // never entered the ROB: nothing references it
				return         // stalled (or fallback redirect emptied the queue)
			}
		}

		p.stepQuiet = false
		p.nextSeq++
		p.fetchq.pop()

		// Region bookkeeping.
		switch in.Op {
		case isa.OpSRVStart:
			p.dispRegionCounter++
			p.dispInRegion = true
			e.regionIdx = p.dispRegionCounter
		case isa.OpSRVEnd:
			p.dispInRegion = false
		}
		e.regionCounterAfter = p.dispRegionCounter
		e.inRegionAfter = p.dispInRegion

		// Rename: capture producers for reads, record previous writer.
		for _, ri := range d.reads[:d.nreads] {
			p.addSrc(e, int(ri), false)
		}
		if e.regionIdx >= 0 && d.mergeable {
			// Inside a region every vector/predicate write merges with its
			// old value under the SRV-replay mask (paper §III-D5), so the
			// old destination becomes a source even without a governing
			// predicate. The read is only consumed when the mask is partial.
			p.addSrc(e, renameIdx(d.writeRef), true)
		}
		if d.hasWrite {
			e.hasWrite, e.writeRef = true, d.writeRef
			ri := renameIdx(d.writeRef)
			e.prevWriter = p.rename[ri]
			if e.prevWriter != nil {
				e.prevWriterSeq = e.prevWriter.seq
			}
			p.rename[ri] = e
		}

		p.pushROB(e)
		p.iqCount++
		// e is the youngest entry, so appending keeps both lists in order.
		if e.pending == 0 || in.Op == isa.OpSRVEnd {
			p.readyList = append(p.readyList, e)
		}
		if e.is(clStore) {
			p.stores = append(p.stores, e)
		}
	}
}

// reserveLSU allocates the LSU entries for a memory instruction: one per
// lane for gathers and scatters, one otherwise. On overflow the region is
// demoted to sequential fallback (paper §III-D7).
func (p *Pipeline) reserveLSU(e *robEntry, instance int) bool {
	want := 1
	if e.is(clGatherScatter) && !e.fallback {
		// One entry per lane (paper §III-B). In sequential fallback mode a
		// single lane executes per pass, needing one conventional entry.
		want = isa.NumLanes
	}
	seq := p.nextSeq + 1
	for lane := 0; lane < want; lane++ {
		l := lane
		if want == 1 {
			l = -1
		}
		r := p.LSU.Reserve(instance, e.pc, l, e.is(clStore), seq)
		if r.OK {
			e.lsuEntries = append(e.lsuEntries, r.Entry)
			continue
		}
		// Roll back partial reservations unless they are reused region
		// entries (which must persist).
		if instance == lsu.NoInstance {
			p.LSU.SquashYounger(seq - 1)
		}
		e.lsuEntries = nil
		if r.Overflow && p.Ctrl.Mode() == core.ModeSpeculative {
			p.enterFallback(e.pc)
			return false
		}
		p.stepQuiet = false
		p.Stats.DispatchStallLSQ++
		return false
	}
	return true
}

// enterFallback demotes the current region to sequential execution: all
// instructions younger than the region's srv_start are squashed, the
// region's LSU entries discarded, and fetch restarts at the region body with
// a single active lane. causePC is the static instruction that forced the
// demotion (the overflowing store, or the srv_end of the ablation), which
// the replay profile charges the fallback to.
func (p *Pipeline) enterFallback(causePC int) {
	if p.tracer != nil {
		p.traceInstant("fallback", map[string]any{"instance": p.curInstance, "pc": causePC})
		p.tracePassStart = p.cycle // abandoned speculative pass: restart the span
	}
	p.profFallback(causePC)
	p.Ctrl.EnterFallback()
	p.LSU.DiscardRegion(p.curInstance)
	p.squashAfter(p.curStartSeq)
	p.dispRegionCounter = p.curInstance
	p.dispInRegion = true
	p.redirect(p.Ctrl.StartPC())
}

// ---- Issue ----

// issueScan is one cycle's issue-stage budget state.
type issueScan struct {
	total, scalar, branch, vecInt, vecOther, load, store int
	loadSlots, storeSlots                                int
	barrierSeq                                           int64 // seq of a pending srv_end (RelaxedBarrier mode)
}

func (p *Pipeline) issue() {
	p.fullMask = p.Ctrl.InRegion() && p.Ctrl.Replay() == allLanes
	sc := issueScan{loadSlots: p.Cfg.LoadPorts, storeSlots: p.Cfg.StoreElemPerCycle, barrierSeq: -1}
	if sc.storeSlots == 0 {
		sc.storeSlots = p.Cfg.StorePorts
	}

	// Drain pending gather/scatter element accesses first: they own port
	// slots from previous cycles.
	n := 0
	for i, e := range p.drain {
		ports := &sc.loadSlots
		if e.is(clStore) {
			ports = &sc.storeSlots
		}
		for e.memElems > 0 && *ports > 0 {
			p.stepQuiet = false
			e.memElems--
			*ports--
		}
		if e.memElems == 0 {
			e.granted = true
			e.doneAt = p.cycle + int64(e.cacheLat)
			p.inflight = append(p.inflight, e)
			continue
		}
		if n != i {
			p.drain[n] = e
		}
		n++
	}
	clear(p.drain[n:])
	p.drain = p.drain[:n]

	// Select in program order among the entries that can act: the issued
	// srv_end (all older entries are done, so it comes first) and the ready
	// list. Every other in-flight entry is issued, done or waiting on an
	// operand, and issueOne would pass over it. The in-order ablation stalls
	// at the first entry that is not ready, so it walks the ROB window.
	if p.Cfg.InOrder {
		for _, e := range p.robWin() {
			if p.issueOne(e, &sc) {
				break
			}
		}
	} else if e := p.endIssued; e == nil || !p.issueOne(e, &sc) {
		for i := 0; i < len(p.readyList); i++ {
			if p.issueOne(p.readyList[i], &sc) {
				break
			}
		}
	}
	p.pruneReady()
}

// issueOne considers e for issue this cycle and reports whether the scan
// must stop.
func (p *Pipeline) issueOne(e *robEntry, sc *issueScan) bool {
	// The srv_end serialisation barrier: a pending srv_end (waiting or
	// executing) blocks all younger issue (paper §III-D1). The cycles
	// *introduced by* the barrier (Fig 8) are those where everything
	// older has already completed — the machine is purely performing
	// the serialisation handshake — while younger work sits ready; the
	// preceding drain is attributed to the memory operations themselves.
	if e.inst.Op == isa.OpSRVEnd && e.state != sDone {
		if e.state == sDispatched && p.allOlderDone(e) {
			if p.anyYoungerReady(e.seq) {
				p.Stats.BarrierCycles++
			}
			p.execute(e, &sc.loadSlots, &sc.storeSlots)
			return true // nothing younger issues in the same cycle
		}
		if e.state == sIssued && p.anyYoungerReady(e.seq) {
			p.stepQuiet = false
			p.Stats.BarrierCycles++
		}
		if !p.Cfg.RelaxedBarrier {
			return true
		}
		// Relaxed mode: younger non-memory work may proceed past the
		// pending barrier; srv_start and memory operations still wait.
		sc.barrierSeq = e.seq
		return false
	}
	if sc.barrierSeq >= 0 && e.seq > sc.barrierSeq {
		if e.is(clMem) || e.inst.Op == isa.OpSRVStart || e.inst.Op == isa.OpSRVEnd {
			return false
		}
	}
	if e.state != sDispatched {
		return false
	}
	if !p.ready(e) {
		// In-order issue stalls at the first not-ready instruction.
		return p.Cfg.InOrder
	}
	// Global issue width (Table I: issue width 8), then per-class
	// functional-unit budgets.
	if sc.total >= p.Cfg.Width {
		return true
	}
	switch e.fu {
	case fuScalar:
		if sc.scalar >= p.Cfg.ScalarPerCycle {
			return false
		}
		sc.scalar++
	case fuBranch:
		if sc.branch >= p.Cfg.BranchPerCycle {
			return false
		}
		sc.branch++
	case fuVecInt:
		if sc.vecInt >= p.Cfg.VecIntPerCycle {
			return false
		}
		sc.vecInt++
	case fuVecOther:
		if sc.vecOther >= p.Cfg.VecOtherPerCycle {
			return false
		}
		sc.vecOther++
	case fuLoad:
		if sc.load >= p.Cfg.LoadPorts || sc.loadSlots <= 0 {
			return false
		}
		sc.load++
	case fuStore:
		if sc.store >= p.Cfg.StorePorts || sc.storeSlots <= 0 {
			return false
		}
		sc.store++
	}
	sc.total++
	if p.execute(e, &sc.loadSlots, &sc.storeSlots) {
		return true // squash/redirect invalidated the scan
	}
	// Executing srv_start or srv_end moves the region/replay state (fault
	// marking touches only the needs-replay register): refresh the cached
	// full-mask bit for the remaining readiness checks of this scan.
	if op := e.inst.Op; op == isa.OpSRVStart || op == isa.OpSRVEnd {
		p.fullMask = p.Ctrl.InRegion() && p.Ctrl.Replay() == allLanes
	}
	return false
}

// anyYoungerReady reports whether an instruction younger than seq could
// issue were the barrier not in the way (barrier-cycle accounting, Fig 8).
// Every dispatched entry with ready operands is on the ready list.
func (p *Pipeline) anyYoungerReady(seq int64) bool {
	for _, e := range p.readyList {
		if e.seq > seq && e.state == sDispatched && p.readySrcs(e) {
			return true
		}
	}
	return false
}

type fuKind uint8

const (
	fuScalar fuKind = iota
	fuBranch
	fuVecInt
	fuVecOther
	fuLoad
	fuStore
)

// opClass caches an instruction's isa class predicates, which the issue,
// commit and ordering checks consult for every entry they visit.
type opClass uint8

const (
	clMem opClass = 1 << iota
	clLoad
	clStore
	clBranch
	clVector
	clGatherScatter
)

// decodedInst is what dispatch needs of one static instruction. New
// decodes the whole program once (Pipeline.decode), so dispatch reads a
// table entry per instruction.
type decodedInst struct {
	reads    [6]uint8 // rename indices of the registers read (AppendReads)
	nreads   uint8
	hasWrite bool
	// mergeable marks an unpredicated vector/predicate write: inside a
	// region it also reads its old destination (see dispatch).
	mergeable bool
	cls       opClass
	fu        fuKind
	writeRef  isa.RegRef
}

// decodeProgram decodes every instruction of prog.
func decodeProgram(prog *isa.Program) []decodedInst {
	dec := make([]decodedInst, prog.Len())
	var buf [len(decodedInst{}.reads)]isa.RegRef
	for pc := range dec {
		in, d := prog.At(pc), &dec[pc]
		for _, r := range in.AppendReads(buf[:0]) {
			d.reads[d.nreads] = uint8(renameIdx(r))
			d.nreads++
		}
		if w, ok := in.WriteReg(); ok {
			d.hasWrite, d.writeRef = true, w
			d.mergeable = in.Pg == isa.NoPred && w.Class != isa.RegScalar
		}
		if in.IsMem() {
			d.cls |= clMem
		}
		if in.IsLoad() {
			d.cls |= clLoad
		}
		if in.IsStore() {
			d.cls |= clStore
		}
		if in.IsBranch() {
			d.cls |= clBranch
		}
		if in.IsVector() {
			d.cls |= clVector
		}
		if in.IsGatherScatter() {
			d.cls |= clGatherScatter
		}
		d.fu = fuClass(in)
	}
	return dec
}

func (e *robEntry) is(c opClass) bool { return e.cls&c != 0 }

func fuClass(in *isa.Inst) fuKind {
	switch {
	case in.IsLoad():
		return fuLoad
	case in.IsStore():
		return fuStore
	case in.IsBranch():
		return fuBranch
	case !in.IsVector():
		return fuScalar
	}
	switch in.Op {
	case isa.OpVAdd, isa.OpVSub, isa.OpVAddI, isa.OpVAnd, isa.OpVXor,
		isa.OpVShrI, isa.OpVAndI, isa.OpVAddS, isa.OpVMov, isa.OpVSplat,
		isa.OpVIota, isa.OpVIotaRev:
		if in.FP {
			return fuVecOther
		}
		return fuVecInt
	default:
		return fuVecOther
	}
}

// readySrcs reports whether every operand e consumes has its value: no
// producer is pending, and merge-only producers are either complete or
// waived by a full SRV-replay mask.
func (p *Pipeline) readySrcs(e *robEntry) bool {
	return e.pending == 0 && (e.mergePending == 0 || p.fullMask)
}

func (p *Pipeline) ready(e *robEntry) bool {
	if !p.readySrcs(e) {
		return false
	}
	in := e.inst
	switch in.Op {
	case isa.OpSRVStart:
		// No wrong-path region entry: wait for all older branches to
		// resolve, and for any previous region to finish.
		if p.Ctrl.InRegion() {
			return false
		}
		for _, o := range p.robWin() {
			if o.seq >= e.seq {
				break
			}
			if o.is(clBranch) && o.state != sDone {
				return false
			}
		}
		return true
	case isa.OpSRVEnd:
		return p.allOlderDone(e)
	}
	if e.regionIdx >= 0 && e.is(clVector) {
		// Region micro-ops execute only once their region has started.
		if !p.Ctrl.InRegion() || p.curInstance != e.regionIdx {
			return false
		}
	}
	if e.is(clLoad) {
		if e.regionIdx >= 0 || p.Cfg.ConservativeMem {
			// Inside a region: conservative — wait for older same-region
			// stores so forwarding and horizontal disambiguation see all
			// addresses and data. (Region bodies load first and store last,
			// so this costs little.) ConservativeMem makes every load wait.
			return len(p.stores) == 0 || p.stores[0].seq > e.seq
		}
		// Outside regions: aggressive memory-order speculation gated by the
		// store-set predictor (paper §IV-B). The load waits only for
		// unexecuted older stores in its own store set; a misprediction is
		// caught by the vertical RAW check at store execution and squashed.
		sid := p.SS.SetOf(e.pc)
		for _, o := range p.stores {
			if o.seq >= e.seq {
				break
			}
			if o.regionIdx >= 0 {
				return false // never run ahead of a speculative region's stores
			}
			if sid >= 0 && p.SS.SetOf(o.pc) == sid {
				return false
			}
		}
	}
	return true
}

// allOlderDone reports whether every instruction older than e has completed
// without a pending fault.
func (p *Pipeline) allOlderDone(e *robEntry) bool {
	for _, o := range p.robWin() {
		if o.seq >= e.seq {
			break
		}
		if o.state != sDone || o.faulted {
			return false
		}
	}
	return true
}

// ---- Complete / commit ----

// complete retires execution: in-flight entries whose completion time has
// arrived become done and wake their consumers.
func (p *Pipeline) complete() {
	n := 0
	for i, e := range p.inflight {
		if p.cycle < e.doneAt {
			if n != i {
				p.inflight[n] = e // shift only once a gap opens
			}
			n++
			continue
		}
		e.state = sDone
		p.stepQuiet = false
		if e == p.endIssued {
			p.endIssued = nil
		}
		p.wake(e)
	}
	clear(p.inflight[n:])
	p.inflight = p.inflight[:n]
}

func (p *Pipeline) commit() {
	if p.wedgeAt > 0 && p.cycle >= p.wedgeAt {
		return // injected wedge: retire nothing (chaos/watchdog testing)
	}
	for n := 0; n < p.Cfg.Width && p.robLen() > 0; n++ {
		e := p.rob[p.robHead]
		if e.state != sDone || e.faulted {
			return
		}
		p.stepQuiet = false
		p.rob[p.robHead] = nil
		p.robHead++
		if p.robHead == len(p.rob) {
			p.rob = p.rob[:0]
			p.robHead = 0
		}
		p.committedSeq = e.seq
		p.Stats.Committed++
		if p.recordTimeline {
			if len(p.timeline) < TimelineCap {
				p.timeline = append(p.timeline, TimelineEntry{
					Seq: e.seq, PC: e.pc, Op: e.inst.Op.String(),
					Fetch: e.fetchAt, Dispatch: e.dispatchAt, Issue: e.issueAt,
					Done: e.doneAt, Commit: p.cycle,
				})
			} else {
				p.timelineDropped++
			}
		}
		if e.is(clMem) {
			p.Stats.CommittedMem++
		}
		if e.is(clVector) {
			p.Stats.CommittedVec++
		}
		if e.is(clGatherScatter) {
			p.Stats.MicroOps += isa.NumLanes
		} else {
			p.Stats.MicroOps++
		}
		// Architectural effects.
		if e.hasWrite {
			p.writeArch(e)
			if ri := renameIdx(e.writeRef); p.rename[ri] == e {
				p.rename[ri] = nil
			}
		}
		// CommitRegion (at srv_end execution) frees a region's entries while
		// the region's ROB entries may still await in-order commit, so an
		// entry pointer here can already be recycled into a new reservation.
		// Only touch entries that still carry this instruction's identity;
		// region instances are never reused, so a mismatch means the entry
		// was freed with its region and there is nothing left to do.
		instance := lsu.NoInstance
		if e.regionIdx >= 0 && !e.fallback {
			instance = e.regionIdx
		}
		for _, le := range e.lsuEntries {
			if le.Instance != instance || le.ID != e.pc {
				continue
			}
			if e.is(clStore) {
				p.LSU.CommitStore(le)
			} else {
				p.LSU.Release(le)
			}
		}
		halt := e.inst.Op == isa.OpHalt
		p.freeEntry(e)
		if halt {
			p.halted = true
			p.Stats.Cycles = p.cycle
			return
		}
	}
}

func (p *Pipeline) writeArch(e *robEntry) {
	switch e.writeRef.Class {
	case isa.RegScalar:
		p.S[e.writeRef.Idx] = e.sclRes
	case isa.RegVector:
		p.Vr[e.writeRef.Idx] = e.pay.vecRes
	case isa.RegPred:
		p.Pr[e.writeRef.Idx] = e.pay.predRes
	}
}

// ---- Squash ----

// squashAfter removes every instruction with seq > after, restoring the
// rename table and dispatcher state.
func (p *Pipeline) squashAfter(after int64) {
	p.stepQuiet = false
	win := p.robWin()
	cut := len(win)
	for i, e := range win {
		if e.seq > after {
			cut = i
			break
		}
	}
	doomed := win[cut:]
	// Unwind the rename table youngest-first. A doomed writer's previous
	// writer may itself be doomed; restoring it anyway lets the chain unwind
	// until the youngest SURVIVING writer (or the architectural file) is the
	// final mapping. Youngest-first is also the order that unlinks doomed
	// consumers from their surviving producers' wake chains.
	for i := len(doomed) - 1; i >= 0; i-- {
		e := doomed[i]
		p.unlinkSrcs(e, after)
		if e.hasWrite {
			if ri := renameIdx(e.writeRef); p.rename[ri] == e {
				w := e.prevWriter
				if w != nil && e.prevWriterSeq <= p.committedSeq {
					// The previous writer already committed: its value is in
					// the architectural file and the entry may be recycled.
					// (Behaviourally identical — a committed producer reads
					// as ready and forwards the same value the file holds.)
					w = nil
				}
				p.rename[ri] = w // nil restores the architectural file
			}
		}
		if e.state == sDispatched {
			p.iqCount--
		}
	}
	p.Stats.SquashedInsts += int64(len(doomed))
	if len(doomed) > 0 {
		p.Stats.Squashes++
		if p.tracer != nil {
			p.traceInstant("squash", map[string]any{"insts": len(doomed)})
		}
	}
	// Drop the doomed entries from the scheduler lists (before the frees
	// below reset their seqs).
	p.dropYounger(after)
	for i := range doomed {
		p.freeEntry(doomed[i]) // last: rename and the windows no longer hold them
		doomed[i] = nil
	}
	p.rob = p.rob[:p.robHead+cut]
	p.LSU.SquashYounger(after)
	// Restore dispatcher region state from the youngest survivor.
	if cut > 0 {
		last := p.rob[len(p.rob)-1]
		p.dispRegionCounter = last.regionCounterAfter
		p.dispInRegion = last.inRegionAfter
	} else {
		p.dispInRegion = p.Ctrl.InRegion()
		p.dispRegionCounter = p.curInstance
	}
	p.fetchq.clear()
	p.fetchStalled = false
}

func (p *Pipeline) redirect(pc int) {
	p.stepQuiet = false
	p.fetchPC = pc
	p.fetchStalled = false
	p.fetchq.clear()
}

// ---- Interrupts ----

// takeInterrupt implements paper §III-D2/D3: the pipeline is flushed; inside
// a region the non-speculative LSU data is written back, the SRV state
// (current PC, SRV-replay, restart PC) saved, and on resumption only the
// oldest saved lane re-executes, with all younger lanes marked for a full
// replay after srv_end.
// interruptSafe reports whether the machine is at a point where an
// interrupt can be delivered precisely: the ROB head must not be a
// completed-but-uncommitted instruction (its effects are already
// architectural), and no srv_start/srv_end may be in flight with its
// execute-time region transition applied but not yet committed. Hardware
// drains to such a boundary before vectoring to a handler; the wait is
// bounded because completed heads retire at the commit width.
func (p *Pipeline) interruptSafe() bool {
	if p.robLen() == 0 {
		return true
	}
	if p.rob[p.robHead].state == sDone {
		return false
	}
	for _, e := range p.robWin() {
		op := e.inst.Op
		if (op == isa.OpSRVStart || op == isa.OpSRVEnd) && e.state != sDispatched {
			return false
		}
	}
	return true
}

func (p *Pipeline) takeInterrupt() {
	p.stepQuiet = false
	p.Stats.Interrupts++
	p.profSuspend()
	if p.tracer != nil {
		p.traceInstant("interrupt", nil)
	}
	// The architectural point is the oldest uncommitted instruction: the ROB
	// head, else the oldest front-end slot, else the fetch PC.
	archPC := p.fetchPC
	if p.robLen() > 0 {
		archPC = p.rob[p.robHead].pc
	} else if p.fetchLen() > 0 {
		archPC = p.fetchq.front().PC
	}
	var committedSeq int64
	if p.robLen() > 0 {
		committedSeq = p.rob[p.robHead].seq - 1
	} else {
		committedSeq = p.nextSeq
	}
	if p.Ctrl.InRegion() && archPC >= p.Ctrl.StartPC() {
		// Architecturally inside the region: write back the non-speculative
		// LSU data (the oldest active lane up to the current PC plus all
		// older lanes), save the SRV state, and arrange the §III-D2 resume.
		mode := p.Ctrl.Mode()
		saved := p.Ctrl.Suspend(archPC)
		if mode == core.ModeSpeculative {
			p.LSU.WritebackNonSpec(p.curInstance, saved.Replay.Oldest(), archPC)
		}
		// Fallback-mode entries are conventional: committed stores already
		// reached memory, the rest die with the squash.
		p.savedSRV = saved
		p.resuming = true
		p.squashAfter(committedSeq)
		// The resumed pass is a fresh instance with no srv_start in flight.
		p.dispRegionCounter++
		p.curInstance = p.dispRegionCounter
		p.dispInRegion = true
		p.curStartSeq = committedSeq
		p.redirect(saved.CurrentPC)
	} else {
		if p.Ctrl.InRegion() {
			// srv_start executed but never committed: the region has not
			// architecturally begun; discard it and re-enter from scratch.
			p.Ctrl.Abort()
			p.LSU.DiscardRegion(p.curInstance)
			p.curInstance = -1
		}
		p.squashAfter(committedSeq)
		p.dispInRegion = false
		p.redirect(archPC)
	}
	p.resumeAt = p.cycle + p.intrDur
}
