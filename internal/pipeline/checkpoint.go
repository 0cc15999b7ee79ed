package pipeline

import (
	"fmt"
	"sort"

	"srvsim/internal/core"
	"srvsim/internal/isa"
	"srvsim/internal/lsu"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/predictor"
)

// Checkpoint/restore of the simulated machine. A Checkpoint is a versioned,
// JSON-serialisable capture of everything the machine has accumulated
// mid-run — architectural state, the ROB and rename windows, the fetch
// queue's slots, the SRV controller, the LSU, both predictors, the cache
// hierarchy, the memory image and the region-duration histogram —
// sufficient to rebuild a pipeline that continues bit-identically: Stats,
// DumpStats, registers and memory all match an uninterrupted run.
//
// Observers and debug checks are not machine state. The tracer, sampler,
// pipeview timeline and paranoid mode stay as the caller set them on the
// restored pipeline; Restore only re-derives their cursors from the
// restored machine, so their output covers the run from the restore on.
//
// Pointer graphs serialise by identity, not address: robEntry references
// (rename table, operand producers, previous writers, the in-flight window)
// are captured as sequence numbers and re-linked through the restored ROB
// window; LSU entry pointers are captured as allocation stamps and
// re-linked through the restored LSU. Producer references whose seq is at
// or below committedSeq restore as nil — every consumer guards the deref
// with exactly that comparison, so nil is behaviourally identical to the
// recycled pointer the original run carried.
//
// Derived state is rebuilt, not captured: the instruction pointer comes
// from the program at the captured PC, the scheduler's lists, operand counts
// and wake chains are rebuilt from the ROB (relinkScheduler), the issue
// scan's fullMask cache and stepQuiet are recomputed every step, and the
// lazily-built metrics registry re-registers against the restored counters
// on next use. The issue-queue population is counted from the ROB while
// relinkScheduler walks it.

// CheckpointSchemaVersion is the schema version of Checkpoint. Bump on any
// incompatible change to the serialised form; Restore rejects mismatches so
// a stale journal cannot silently resurrect wrong state. Version 3 dropped
// the store-set predictor's LFST; version 4 dropped the observer buffers,
// the paranoid flag, the capped region-duration log and the derived
// in-flight window and issue-queue count, and added the histogram maximum;
// version 5 stores the bounded fetch queue's slots literally instead of a
// compressed stream.
const CheckpointSchemaVersion = 5

// SrcState is one captured operand link (robEntry.src).
type SrcState struct {
	Ref       isa.RegRef `json:"ref"`
	ProdSeq   int64      `json:"prodSeq,omitempty"`
	MergeOnly bool       `json:"mergeOnly,omitempty"`
}

// ROBEntryState is one captured ROB entry. The instruction itself is not
// captured: it is re-derived from the program at PC.
type ROBEntryState struct {
	Seq   int64 `json:"seq"`
	PC    int   `json:"pc"`
	State int   `json:"state"`

	RegionIdx          int  `json:"regionIdx"`
	RegionCounterAfter int  `json:"regionCounterAfter"`
	InRegionAfter      bool `json:"inRegionAfter"`
	Fallback           bool `json:"fallback,omitempty"`

	Srcs          []SrcState `json:"srcs,omitempty"`
	HasWrite      bool       `json:"hasWrite,omitempty"`
	WriteRef      isa.RegRef `json:"writeRef"`
	PrevWriterSeq int64      `json:"prevWriterSeq,omitempty"`

	DoneAt  int64    `json:"doneAt"`
	SclRes  int64    `json:"sclRes,omitempty"`
	VecRes  isa.Vec  `json:"vecRes"`
	PredRes isa.Pred `json:"predRes"`

	PredTaken  bool `json:"predTaken,omitempty"`
	PredTarget int  `json:"predTarget,omitempty"`

	LSUAllocs []int64 `json:"lsuAllocs,omitempty"`
	MemElems  int     `json:"memElems,omitempty"`
	CacheLat  int     `json:"cacheLat,omitempty"`
	Granted   bool    `json:"granted,omitempty"`

	FetchAt    int64 `json:"fetchAt"`
	DispatchAt int64 `json:"dispatchAt"`
	IssueAt    int64 `json:"issueAt"`

	Faulted   bool   `json:"faulted,omitempty"`
	FaultAddr uint64 `json:"faultAddr,omitempty"`
}

// Checkpoint is the full serialisable machine state.
type Checkpoint struct {
	SchemaVersion int   `json:"schemaVersion"`
	ProgLen       int   `json:"progLen"`
	Cycle         int64 `json:"cycle"`

	Stats Stats                    `json:"stats"`
	S     [isa.NumSclRegs]int64    `json:"s"`
	Vr    [isa.NumVecRegs]isa.Vec  `json:"vr"`
	Pr    [isa.NumPredReg]isa.Pred `json:"pr"`

	ROB          []ROBEntryState    `json:"rob"`
	Rename       [renameSlots]int64 `json:"rename"`
	NextSeq      int64              `json:"nextSeq"`
	CommittedSeq int64              `json:"committedSeq"`

	FetchPC      int         `json:"fetchPC"`
	FetchStalled bool        `json:"fetchStalled"`
	FetchQ       []FetchSlot `json:"fetchq,omitempty"`

	DispRegionCounter int   `json:"dispRegionCounter"`
	DispInRegion      bool  `json:"dispInRegion"`
	CurInstance       int   `json:"curInstance"`
	CurStartSeq       int64 `json:"curStartSeq"`
	Halted            bool  `json:"halted"`
	HaltSeen          bool  `json:"haltSeen"`

	IntrAt             int64      `json:"intrAt"`
	IntrDur            int64      `json:"intrDur"`
	ResumeAt           int64      `json:"resumeAt"`
	SavedSRV           core.Saved `json:"savedSRV"`
	Resuming           bool       `json:"resuming"`
	FaultAddrs         []uint64   `json:"faultAddrs,omitempty"`
	FaultServiceCycles int64      `json:"faultServiceCycles"`
	WedgeAt            int64      `json:"wedgeAt"`

	RegionHist       obsv.HistogramState `json:"regionHist"`
	RegionStartCycle int64               `json:"regionStartCycle"`

	// LastProgress is the forward-progress watchdog's anchor at capture, so
	// a restored run trips (or does not trip) the watchdog at the exact
	// cycle the uninterrupted run would.
	LastProgress int64 `json:"lastProgress"`

	Ctrl core.ControllerState    `json:"ctrl"`
	LSU  lsu.LSUState            `json:"lsu"`
	Mem  mem.ImageState          `json:"mem"`
	Hier mem.HierarchyState      `json:"hier"`
	BP   predictor.BranchState   `json:"bp"`
	SS   predictor.StoreSetState `json:"ss"`
}

// danglingLSUEntry replaces captured LSU-entry pointers whose target was
// already freed (a region committed at srv_end execution while its body
// entries awaited in-order commit). Commit's identity guard can never match
// it (no instruction has pc -1), so it skips exactly as the recycled
// pointer would have been skipped — and the original's guarded no-op calls
// on free-list entries had no observable effect either.
var danglingLSUEntry = &lsu.Entry{Instance: lsu.NoInstance, ID: -1}

// SetCheckpointSink installs the periodic-checkpoint callback. With a sink
// installed and Config.CheckpointEvery > 0, RunContext emits a fresh
// Checkpoint at every cancellation-poll boundary at least CheckpointEvery
// cycles after the previous emission. The sink runs on the simulation
// goroutine: it should hand the checkpoint off quickly.
func (p *Pipeline) SetCheckpointSink(fn func(*Checkpoint)) { p.ckptSink = fn }

// Checkpoint captures the full machine state. The pipeline must be at a
// step boundary (between cycles): inside Run that means the cancellation
// -poll/watchdog points; outside Run any time.
func (p *Pipeline) Checkpoint() *Checkpoint { return p.checkpoint(p.cycle) }

func (p *Pipeline) checkpoint(lastProgress int64) *Checkpoint {
	cp := &Checkpoint{
		SchemaVersion: CheckpointSchemaVersion,
		ProgLen:       p.Prog.Len(),
		Cycle:         p.cycle,
		Stats:         p.Stats,
		S:             p.S,
		Vr:            p.Vr,
		Pr:            p.Pr,

		NextSeq:      p.nextSeq,
		CommittedSeq: p.committedSeq,

		FetchPC:      p.fetchPC,
		FetchStalled: p.fetchStalled,

		DispRegionCounter: p.dispRegionCounter,
		DispInRegion:      p.dispInRegion,
		CurInstance:       p.curInstance,
		CurStartSeq:       p.curStartSeq,
		Halted:            p.halted,
		HaltSeen:          p.haltSeen,

		IntrAt:             p.intrAt,
		IntrDur:            p.intrDur,
		ResumeAt:           p.resumeAt,
		SavedSRV:           p.savedSRV,
		Resuming:           p.resuming,
		FaultServiceCycles: p.FaultServiceCycles,
		WedgeAt:            p.wedgeAt,

		RegionHist:       p.regionHist.State(),
		RegionStartCycle: p.regionStartCycle,

		LastProgress: lastProgress,

		Ctrl: p.Ctrl.State(),
		LSU:  p.LSU.State(),
		Mem:  p.Mem.State(),
		Hier: p.Hier.State(),
		BP:   p.BP.State(),
		SS:   p.SS.State(),
	}

	win := p.robWin()
	cp.ROB = make([]ROBEntryState, len(win))
	for i, e := range win {
		es := ROBEntryState{
			Seq: e.seq, PC: e.pc, State: e.state,
			RegionIdx: e.regionIdx, RegionCounterAfter: e.regionCounterAfter,
			InRegionAfter: e.inRegionAfter, Fallback: e.fallback,
			HasWrite: e.hasWrite, WriteRef: e.writeRef, PrevWriterSeq: e.prevWriterSeq,
			DoneAt: e.doneAt, SclRes: e.sclRes, VecRes: e.pay.vecRes, PredRes: e.pay.predRes,
			PredTaken: e.predTaken, PredTarget: e.predTarget,
			MemElems: e.memElems, CacheLat: e.cacheLat, Granted: e.granted,
			FetchAt: e.fetchAt, DispatchAt: e.dispatchAt, IssueAt: e.issueAt,
			Faulted: e.faulted, FaultAddr: e.faultAddr,
		}
		if srcs := e.srcs(); len(srcs) > 0 {
			es.Srcs = make([]SrcState, len(srcs))
			for j := range srcs {
				s := &srcs[j]
				es.Srcs[j] = SrcState{Ref: renameRef(int(s.ri)), ProdSeq: s.prodSeq, MergeOnly: s.mergeOnly}
			}
		}
		if len(e.lsuEntries) > 0 {
			es.LSUAllocs = make([]int64, len(e.lsuEntries))
			for j, le := range e.lsuEntries {
				es.LSUAllocs[j] = le.AllocID()
			}
		}
		cp.ROB[i] = es
	}

	for i, e := range p.rename {
		if e != nil {
			cp.Rename[i] = e.seq
		}
	}

	cp.FetchQ = p.fetchq.state()

	if p.FaultAddrs != nil {
		cp.FaultAddrs = make([]uint64, 0, len(p.FaultAddrs))
		for a := range p.FaultAddrs {
			cp.FaultAddrs = append(cp.FaultAddrs, a)
		}
		sort.Slice(cp.FaultAddrs, func(i, j int) bool { return cp.FaultAddrs[i] < cp.FaultAddrs[j] })
	}
	return cp
}

// Restore replaces the pipeline's machine state with a checkpoint, the
// rollback half of the commit/rollback pair. The pipeline must have been
// built (New) over the same program and configuration the checkpoint was
// captured from; preparation the harness reapplies on construction (cache
// warming, chaos latency perturbation) is overwritten wholesale, so the
// restored machine equals the original at the captured cycle exactly.
// Attached observers and paranoid mode are left as the caller set them:
// the tracer's pass cursor restarts at the restored cycle and the
// sampler's interval-IPC base at the restored committed count, so the
// first sampled interval counts only commits made after the restore.
func (p *Pipeline) Restore(cp *Checkpoint) error {
	if cp.SchemaVersion != CheckpointSchemaVersion {
		return fmt.Errorf("pipeline: checkpoint schema v%d, this build reads v%d",
			cp.SchemaVersion, CheckpointSchemaVersion)
	}
	if cp.ProgLen != p.Prog.Len() {
		return fmt.Errorf("pipeline: checkpoint for a %d-instruction program, pipeline runs %d",
			cp.ProgLen, p.Prog.Len())
	}
	if err := p.LSU.SetState(cp.LSU); err != nil {
		return err
	}
	if err := p.Mem.SetState(cp.Mem); err != nil {
		return err
	}
	if err := p.Hier.SetState(cp.Hier); err != nil {
		return err
	}
	p.Ctrl.SetState(cp.Ctrl)
	p.BP.SetState(cp.BP)
	p.SS.SetState(cp.SS)

	p.cycle = cp.Cycle
	p.Stats = cp.Stats
	p.S, p.Vr, p.Pr = cp.S, cp.Vr, cp.Pr
	p.nextSeq = cp.NextSeq
	p.committedSeq = cp.CommittedSeq
	p.fetchPC = cp.FetchPC
	p.fetchStalled = cp.FetchStalled
	p.dispRegionCounter = cp.DispRegionCounter
	p.dispInRegion = cp.DispInRegion
	p.curInstance = cp.CurInstance
	p.curStartSeq = cp.CurStartSeq
	p.halted = cp.Halted
	p.haltSeen = cp.HaltSeen
	p.intrAt = cp.IntrAt
	p.intrDur = cp.IntrDur
	p.resumeAt = cp.ResumeAt
	p.savedSRV = cp.SavedSRV
	p.resuming = cp.Resuming
	p.FaultServiceCycles = cp.FaultServiceCycles
	p.wedgeAt = cp.WedgeAt
	if cp.FaultAddrs == nil {
		p.FaultAddrs = nil
	} else {
		p.FaultAddrs = make(map[uint64]bool, len(cp.FaultAddrs))
		for _, a := range cp.FaultAddrs {
			p.FaultAddrs[a] = true
		}
	}

	// ROB window: rebuild entries from scratch and re-link the pointer graph
	// by seq. Entries the window held before the restore are recycled.
	p.dropYounger(-1)
	for _, e := range p.robWin() {
		p.freeEntry(e)
	}
	for i := range p.rob {
		p.rob[i] = nil
	}
	p.rob = p.rob[:0]
	p.robHead = 0
	p.rename = [renameSlots]*robEntry{}

	lsuByAlloc := make(map[int64]*lsu.Entry)
	for _, le := range p.LSU.Entries() {
		lsuByAlloc[le.AllocID()] = le
	}

	seqMap := make(map[int64]*robEntry, len(cp.ROB))
	for i := range cp.ROB {
		es := &cp.ROB[i]
		if es.PC < 0 || es.PC >= p.Prog.Len() {
			return fmt.Errorf("pipeline: checkpoint rob[%d] pc %d out of range", i, es.PC)
		}
		e := p.allocEntry()
		e.seq = es.Seq
		e.pc = es.PC
		e.inst = p.Prog.At(es.PC)
		e.cls, e.fu = p.decode[es.PC].cls, p.decode[es.PC].fu
		e.state = es.State
		e.regionIdx = es.RegionIdx
		e.regionCounterAfter = es.RegionCounterAfter
		e.inRegionAfter = es.InRegionAfter
		e.fallback = es.Fallback
		e.hasWrite = es.HasWrite
		e.writeRef = es.WriteRef
		e.prevWriterSeq = es.PrevWriterSeq
		e.doneAt = es.DoneAt
		e.sclRes = es.SclRes
		e.pay.vecRes = es.VecRes
		e.pay.predRes = es.PredRes
		e.predTaken = es.PredTaken
		e.predTarget = es.PredTarget
		e.memElems = es.MemElems
		e.cacheLat = es.CacheLat
		e.granted = es.Granted
		e.fetchAt = es.FetchAt
		e.dispatchAt = es.DispatchAt
		e.issueAt = es.IssueAt
		e.faulted = es.Faulted
		e.faultAddr = es.FaultAddr
		if len(es.Srcs) > len(e.pay.srcBuf) {
			return fmt.Errorf("pipeline: checkpoint seq %d has %d operands, at most %d fit", es.Seq, len(es.Srcs), len(e.pay.srcBuf))
		}
		for j := range es.Srcs {
			ss := &es.Srcs[j]
			ri, ok := refRenameIdx(ss.Ref)
			if !ok {
				return fmt.Errorf("pipeline: checkpoint seq %d reads register %v", es.Seq, ss.Ref)
			}
			e.pay.srcBuf[j] = src{ri: uint8(ri), prodSeq: ss.ProdSeq, mergeOnly: ss.MergeOnly}
		}
		e.nsrc = uint8(len(es.Srcs))
		e.lsuEntries = e.pay.lsuBuf[:0]
		for _, a := range es.LSUAllocs {
			le := lsuByAlloc[a]
			if le == nil {
				le = danglingLSUEntry
			}
			e.lsuEntries = append(e.lsuEntries, le)
		}
		p.pushROB(e)
		seqMap[e.seq] = e
	}
	// Second pass: producer and previous-writer links. A seq at or below
	// committedSeq is behind the architectural file — nil reproduces the
	// original's guarded never-dereferenced pointer.
	for _, e := range p.robWin() {
		srcs := e.srcs()
		for j := range srcs {
			s := &srcs[j]
			if s.prodSeq > p.committedSeq {
				prod := seqMap[s.prodSeq]
				if prod == nil {
					return fmt.Errorf("pipeline: checkpoint seq %d references missing producer %d", e.seq, s.prodSeq)
				}
				s.prod = prod
			}
		}
		if e.prevWriterSeq > p.committedSeq {
			w := seqMap[e.prevWriterSeq]
			if w == nil {
				return fmt.Errorf("pipeline: checkpoint seq %d references missing previous writer %d", e.seq, e.prevWriterSeq)
			}
			e.prevWriter = w
		}
	}
	p.relinkScheduler()
	for i, seq := range cp.Rename {
		if seq == 0 {
			continue
		}
		e := seqMap[seq]
		if e == nil {
			return fmt.Errorf("pipeline: checkpoint rename table references missing seq %d", seq)
		}
		p.rename[i] = e
	}

	if err := p.fetchq.setState(cp.FetchQ, p.Prog.Len()); err != nil {
		return err
	}

	p.regionHist.SetState(cp.RegionHist)
	p.regionStartCycle = cp.RegionStartCycle

	// Observer cursors, re-derived from the restored machine.
	p.tracePassStart = cp.Cycle
	p.tracePassNum = 0
	p.lastSampleCommitted = cp.Stats.Committed

	// The metrics registry holds views over state the restore just replaced:
	// rebuild it lazily.
	p.metrics = nil

	// Continue the checkpoint cadence and the watchdog window from where the
	// original run stood.
	p.ckptLastAt = cp.Cycle
	p.restoredProgress = true
	p.restoredLastProgress = cp.LastProgress
	return nil
}
