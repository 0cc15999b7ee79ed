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

// Checkpoint/restore of the full machine state (ISSUE 7). A Checkpoint is a
// versioned, JSON-serialisable capture of everything a Pipeline has
// accumulated mid-run — architectural state, the ROB/rename/active windows,
// the fetch deque (packed and compressed: see FetchQState — it can run
// millions of slots deep), the SRV controller, the LSU, both predictors, the cache
// hierarchy, the memory image, and the observability cursors — sufficient
// to rebuild a pipeline that continues bit-identically: Stats, DumpStats,
// sampler rows and trace bytes all match an uninterrupted run.
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
// on next use. The captured in-flight window (Checkpoint.Active) is
// likewise derived from the ROB.

// CheckpointSchemaVersion is the schema version of Checkpoint. Bump on any
// incompatible change to the serialised form; Restore rejects mismatches so
// a stale journal cannot silently resurrect wrong state.
const CheckpointSchemaVersion = 2

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
	Active       []int64            `json:"active"`
	IQCount      int                `json:"iqCount"`
	Rename       [renameSlots]int64 `json:"rename"`
	NextSeq      int64              `json:"nextSeq"`
	CommittedSeq int64              `json:"committedSeq"`

	FetchPC      int         `json:"fetchPC"`
	FetchStalled bool        `json:"fetchStalled"`
	FetchQ       FetchQState `json:"fetchq"`

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
	Paranoid           bool       `json:"paranoid"`

	RecordTimeline  bool            `json:"recordTimeline"`
	Timeline        []TimelineEntry `json:"timeline,omitempty"`
	TimelineDropped int64           `json:"timelineDropped"`

	RegionHist       obsv.HistogramState `json:"regionHist"`
	RegionStartCycle int64               `json:"regionStartCycle"`
	RegionDurations  []int64             `json:"regionDurations,omitempty"`

	Tracer         *obsv.TracerState `json:"tracer,omitempty"`
	TracePassStart int64             `json:"tracePassStart"`
	TracePassNum   int               `json:"tracePassNum"`

	Sampler             *obsv.SamplerState `json:"sampler,omitempty"`
	SampleEvery         int64              `json:"sampleEvery"`
	LastSampleCommitted int64              `json:"lastSampleCommitted"`

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

		IQCount:      p.iqCount,
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
		Paranoid:           p.paranoid,

		RecordTimeline:  p.recordTimeline,
		TimelineDropped: p.timelineDropped,

		RegionHist:       p.regionHist.State(),
		RegionStartCycle: p.regionStartCycle,
		RegionDurations:  append([]int64(nil), p.regionDurations...),

		TracePassStart: p.tracePassStart,
		TracePassNum:   p.tracePassNum,

		SampleEvery:         p.sampleEvery,
		LastSampleCommitted: p.lastSampleCommitted,

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

	// The in-flight window: every entry not done, or done with a fault
	// still to deliver.
	cp.Active = make([]int64, 0, len(win))
	for _, e := range win {
		if e.state != sDone || e.faulted {
			cp.Active = append(cp.Active, e.seq)
		}
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

	if p.recordTimeline {
		cp.Timeline = append([]TimelineEntry(nil), p.timeline...)
	}

	if p.tracer != nil {
		ts, err := p.tracer.State()
		if err != nil {
			// Trace args are maps of strings and ints; marshal cannot fail.
			panic(fmt.Sprintf("pipeline: tracer state capture: %v", err))
		}
		cp.Tracer = &ts
	}
	if p.sampler != nil {
		ss := p.sampler.State()
		cp.Sampler = &ss
	}
	return cp
}

// Restore replaces the pipeline's entire mutable state with a checkpoint,
// the rollback half of the commit/rollback pair. The pipeline must have
// been built (New) over the same program and configuration the checkpoint
// was captured from; preparation the harness reapplies on construction
// (cache warming, chaos latency perturbation) is overwritten wholesale, so
// the restored machine equals the original at the captured cycle exactly.
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
	p.iqCount = cp.IQCount
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
	p.paranoid = cp.Paranoid
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
	for _, seq := range cp.Active {
		if seqMap[seq] == nil {
			return fmt.Errorf("pipeline: checkpoint active window references missing seq %d", seq)
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

	// Observability: timeline, histogram, tracer and sampler contents.
	p.recordTimeline = cp.RecordTimeline
	p.timeline = append(p.timeline[:0], cp.Timeline...)
	p.timelineDropped = cp.TimelineDropped
	p.regionHist.SetState(cp.RegionHist)
	p.regionStartCycle = cp.RegionStartCycle
	p.regionDurations = append(p.regionDurations[:0], cp.RegionDurations...)
	p.tracePassStart = cp.TracePassStart
	p.tracePassNum = cp.TracePassNum
	if cp.Tracer != nil {
		if p.tracer == nil {
			p.tracer = obsv.NewTracer()
		}
		if err := p.tracer.SetState(*cp.Tracer); err != nil {
			return err
		}
	} else {
		p.tracer = nil
	}
	p.sampleEvery = cp.SampleEvery
	p.lastSampleCommitted = cp.LastSampleCommitted
	if cp.Sampler != nil {
		if p.sampler == nil {
			p.sampler = obsv.NewSampler(cp.Sampler.Every, cp.Sampler.Columns...)
		}
		p.sampler.SetState(*cp.Sampler)
	} else {
		p.sampler = nil
	}

	// The metrics registry holds closures over state that just changed shape
	// (e.g. the conditional region-duration gauge): rebuild lazily.
	p.metrics = nil

	// Continue the checkpoint cadence and the watchdog window from where the
	// original run stood.
	p.ckptLastAt = cp.Cycle
	p.restoredProgress = true
	p.restoredLastProgress = cp.LastProgress
	return nil
}
