package pipeline

import "math"

// Event-driven quiet-stretch scheduler.
//
// The reference core ticks every cycle, and on most workloads the majority of
// those ticks do nothing: the front end is drained behind a halt, a
// gather/scatter is waiting out a memory latency, or the machine is frozen
// servicing an interrupt or fault. step() tracks this precisely — stepQuiet
// is true only when a step fetched, dispatched, issued, drained, completed,
// committed, squashed, redirected, froze, unfroze or counted nothing.
//
// After a quiet step the machine is inert: re-running step() at cycle+1,
// cycle+2, ... changes no state until some *time-based* wake event arrives.
// The wake events are exactly:
//
//   - fetch-stall release: the oldest fetch-queue slot's readyAt arrives, so
//     dispatch can drain it (front-end delay expiry);
//   - memory return: an issued, fully-granted instruction's doneAt arrives,
//     so complete() transitions it (which can unblock issue, commit, srv_end
//     barriers and interrupt delivery). These are exactly the entries on
//     the in-flight list; an entry on the drain list still has element
//     accesses to push through the ports, so the next cycle acts;
//   - replay-round / freeze boundary: resumeAt arrives after an interrupt or
//     fault freeze and the front end thaws;
//   - interrupt arrival: a scheduled interrupt's cycle arrives while the
//     machine is at an interrupt-safe point;
//   - watchdog / budget deadline: the forward-progress window or the cycle
//     budget expires (these fire in RunContext, so the jump is clamped one
//     cycle short and a real step runs at the deadline, keeping the error
//     cycle, snapshot and Stats bit-identical to the reference core).
//
// quietWake computes the earliest such event; advanceQuiet moves p.cycle
// straight there (minus one, so the event itself executes as a real step),
// replaying the sampler/tracer observation hooks at every interval boundary
// crossed so the recorded time-series stays bit-identical.
//
// Correctness contract: on every observable output — Stats, DumpStats,
// sampler rows, trace events, error cycles and snapshots, cancellation-poll
// cadence — the event-driven core is bit-identical to the reference tick
// core (UseReferenceTickCore). The cross-core equivalence suite enforces
// this across the whole workload suite.

// neverWake means no pending time-based event: the machine will not act
// again on its own. RunContext's watchdog/budget clamps still bound the jump,
// so a genuinely wedged machine reaches its deadline through a real step.
const neverWake = int64(math.MaxInt64)

// quietTarget returns the cycle to jump to after a quiet step: one cycle
// short of the next wake event, clamped so every cancellation-poll boundary,
// the cycle budget, and the watchdog deadline are still hit by real loop
// iterations. Returns p.cycle (no jump) when nothing can be skipped.
func (p *Pipeline) quietTarget(max, wd, lastProgress int64) int64 {
	wake := p.quietWake()
	if wake <= p.cycle+1 {
		return p.cycle // next cycle acts (or a conservative bail): no jump
	}
	target := wake - 1
	// Never skip a cancellation-poll boundary: RunContext polls at every
	// loop-top cycle that is a multiple of cancelCheckMask+1, and the
	// equivalence contract includes the poll call count.
	if b := (p.cycle | cancelCheckMask) + 1; b < target {
		target = b
	}
	// The budget error fires at loop top with p.cycle == max.
	if max < target {
		target = max
	}
	// The watchdog fires after the real step at lastProgress+wd. Frozen
	// stretches are exempt: the reference refreshes lastProgress every frozen
	// cycle, and RunContext replays that refresh after the jump.
	if wd > 0 && p.resumeAt <= p.cycle {
		if t := lastProgress + wd - 1; t < target {
			target = t
		}
	}
	return target
}

// quietWake returns the cycle of the earliest pending wake event, assuming
// the preceding step was quiet (machine inert). Any state it cannot prove
// inert returns p.cycle+1 — a conservative "no skip", never wrong, since a
// real step at the very next cycle is always bit-identical to the reference.
func (p *Pipeline) quietWake() int64 {
	// Frozen front end (interrupt/fault service): the machine thaws at
	// resumeAt, but a scheduled interrupt can still preempt mid-freeze when
	// the machine is at a safe point (step checks interrupts first).
	if p.resumeAt > p.cycle {
		wake := p.resumeAt
		if p.intrAt > 0 && p.interruptSafe() {
			if p.intrAt <= p.cycle {
				return p.cycle + 1
			}
			if p.intrAt < wake {
				wake = p.intrAt
			}
		}
		return wake
	}
	// A quiet unfrozen step implies the front end is stalled (fetch counts as
	// activity otherwise). Anything else is a bookkeeping surprise: bail.
	if !p.fetchStalled {
		return p.cycle + 1
	}
	if p.robLen() > 0 {
		h := p.rob[p.robHead]
		wedged := p.wedgeAt > 0 && p.cycle >= p.wedgeAt
		if h.faulted || (h.state == sDone && !wedged) {
			// Fault delivery / commit acts next cycle.
			return p.cycle + 1
		}
	}
	wake := neverWake
	if p.fetchLen() > 0 {
		r := p.fetchq.frontReadyAt()
		if r <= p.cycle {
			return p.cycle + 1
		}
		wake = r
	}
	if p.intrAt > 0 && p.interruptSafe() {
		if p.intrAt <= p.cycle {
			return p.cycle + 1
		}
		if p.intrAt < wake {
			wake = p.intrAt
		}
	}
	if len(p.drain) > 0 {
		return p.cycle + 1 // ports still draining elements: next cycle acts
	}
	for _, e := range p.inflight {
		if e.doneAt <= p.cycle {
			return p.cycle + 1 // a completion already due
		}
		if e.doneAt < wake {
			wake = e.doneAt
		}
	}
	return wake
}

// advanceQuiet moves time to target without stepping, replaying the
// observation hooks at every sampler/tracer interval boundary crossed so the
// recorded time-series matches the reference core row for row. The skipped
// cycles are inert, so observeCycle sees exactly the state the reference
// would have seen.
func (p *Pipeline) advanceQuiet(target int64) {
	if p.sampleEvery > 0 || p.tracer != nil {
		for p.cycle < target {
			next := target
			if p.sampleEvery > 0 {
				if b := p.cycle + p.sampleEvery - p.cycle%p.sampleEvery; b < next {
					next = b
				}
			}
			if p.tracer != nil {
				if b := p.cycle + traceCounterInterval - p.cycle%traceCounterInterval; b < next {
					next = b
				}
			}
			p.cycle = next
			p.observeCycle()
		}
	} else {
		p.cycle = target
	}
	p.Stats.Cycles = p.cycle
}
