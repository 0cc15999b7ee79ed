// Package pipeline implements a cycle-driven out-of-order superscalar core
// with the structural parameters of the paper's Table I, integrating the
// SRV controller (internal/core), the SRV load-store unit (internal/lsu),
// the branch and store-set predictors (internal/predictor) and the cache
// hierarchy (internal/mem).
//
// The model covers: 8-wide fetch/decode/dispatch/commit, a 400-entry ROB,
// 32-entry issue queue, 64-entry LSU, per-class functional-unit issue
// limits (2 vector-integer + 1 other vector op, 2 vector loads + 1 store
// per cycle), gather/scatter micro-op splitting over load-store ports,
// tournament branch prediction with squash-and-refetch recovery, the
// srv_end serialisation barrier, selective replay, LSU-overflow sequential
// fallback, and precise interrupt handling inside SRV regions (§III-D).
//
// Memory dependence scheduling outside SRV regions is speculative, gated by
// the store-set predictor: a load waits only for older unexecuted stores in
// its own store set (or any older store of a speculative region), and a
// vertical RAW violation squashes and trains the predictor. Inside regions,
// and under the ConservativeMem ablation, a load waits for every older
// store to execute.
//
// Scheduling is event-driven at two levels. Within a cycle, issue selects
// from a ready list that completing producers feed through per-entry wake
// chains, complete walks only granted in-flight entries, and no stage scans
// the reorder buffer window (wakeup.go). Across cycles, a step that changes
// no state lets the run jump to the next wake event (scheduler.go). The
// per-cycle reference tick core (UseReferenceTickCore) shares every stage
// and differs only in never jumping. The fetch queue is a fixed ring of
// 2 x Width x FrontEndDelay slots (fetchq.go), and ROB entries keep their
// bulky operands, results and LSU pointers in a payload carved from the
// entry slab.
package pipeline

// Config holds the structural and latency parameters of the core.
type Config struct {
	Width         int // fetch / decode / dispatch / commit width
	IQSize        int
	ROBSize       int
	LSQSize       int
	FrontEndDelay int // fetch-to-dispatch latency in cycles

	VecIntPerCycle    int // vector integer ALU ops issued per cycle
	VecOtherPerCycle  int // other vector ops (mul, fp, predicate) per cycle
	LoadPorts         int // vector/scalar loads started per cycle
	StorePorts        int
	StoreElemPerCycle int // scatter elements disambiguated per cycle (SAQ CAM ports)
	ScalarPerCycle    int // scalar ALU ops per cycle
	BranchPerCycle    int

	ScalarLat int // scalar ALU latency
	VecIntLat int
	VecMulLat int
	VecFPLat  int

	MaxCycles int64 // safety bound; 0 means default

	// CheckpointEvery, when positive, emits a full machine checkpoint
	// (Pipeline.Checkpoint) through the installed sink roughly every this
	// many cycles. Emission happens only at the cancellation-poll boundaries
	// both schedulers visit (every cancelCheckMask+1 cycles), so the emitted
	// cycles are identical on the event-driven and reference tick cores. 0
	// (the default) disables periodic checkpointing; the run path then pays a
	// single predictable branch per poll.
	CheckpointEvery int64

	// WatchdogCycles is the forward-progress window: if no instruction
	// commits for this many consecutive cycles Run returns a *DeadlockError
	// with a machine snapshot instead of burning the remaining MaxCycles
	// budget. 0 selects DefaultWatchdogCycles; negative disables the check.
	WatchdogCycles int64

	// Ablations (DESIGN.md / paper §VIII future work).
	//
	// RelaxedBarrier lets younger NON-memory instructions issue while an
	// srv_end is pending — a conservative step toward the paper's "removing
	// the serialisation barrier in SRV-end". Memory operations still wait,
	// preserving correctness of speculative store buffering.
	RelaxedBarrier bool
	// ConservativeMem disables store-set memory-order speculation: every
	// load waits for all older stores to execute (no vertical squashes).
	ConservativeMem bool
	// InOrder issues instructions strictly in program order (completion may
	// still overlap): the paper's §III-D6 in-order core, to which SRV adds
	// "a limited form of out-of-order execution" through its LSU.
	InOrder bool
	// Prefetch enables the hierarchy's next-line prefetcher — an ablation
	// for footprint-bound loops whose vector groups stream many lines.
	Prefetch bool
	// NoSelectiveReplay ablates the paper's headline mechanism: on any
	// recorded violation the region falls back to sequential re-execution
	// (one lane per pass) instead of selectively replaying the violating
	// lanes. Quantifies what selective replay buys on conflict-bearing
	// loops.
	NoSelectiveReplay bool
}

// DefaultConfig returns the configuration of Table I.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		IQSize:            32,
		ROBSize:           400,
		LSQSize:           64,
		FrontEndDelay:     4,
		VecIntPerCycle:    2,
		VecOtherPerCycle:  1,
		LoadPorts:         2,
		StorePorts:        1,
		StoreElemPerCycle: 2, // Table I: SAQ has 2 CAM ports
		ScalarPerCycle:    4,
		BranchPerCycle:    2,
		ScalarLat:         1,
		VecIntLat:         2,
		VecMulLat:         3,
		VecFPLat:          4,
		MaxCycles:         2_000_000_000,
	}
}

// Stats aggregates the timing-level counters of one run.
type Stats struct {
	Cycles           int64
	Committed        int64 // committed instructions
	CommittedMem     int64
	CommittedVec     int64
	MicroOps         int64 // committed micro-ops (gather/scatter split)
	BarrierCycles    int64 // cycles issue was blocked by a pending srv_end while younger work was ready
	Squashes         int64
	SquashedInsts    int64
	VerticalSquashes int64 // memory-order misspeculation squashes
	DispatchStallROB int64
	DispatchStallIQ  int64
	DispatchStallLSQ int64
	Interrupts       int64
	Exceptions       int64 // precise memory exceptions delivered
	DeferredFaults   int64 // in-region faults on younger lanes deferred to replay (§III-D3)
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
