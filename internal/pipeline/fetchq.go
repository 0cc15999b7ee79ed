package pipeline

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The fetch queue is a FIFO of fetchSlots that can legitimately run millions
// of slots deep: fetch follows the predicted path at full width while a
// memory-bound dispatcher drains a handful of instructions per cycle, and
// the queue's depth is an architectural observable (the sampler's fetchq
// column), so it cannot be capped.
//
// The queue stores runs, not slots. One fetch cycle yields consecutive pcs
// that share a readyAt, and every slot but the cycle's last is either a
// non-branch (no prediction) or a conditional branch predicted not taken
// (target pc+1). A run records the first pc, the slot count, a bitmask
// telling those two kinds apart, and the last slot's prediction in full, so
// a deep queue costs one small record per fetch cycle instead of one slot per
// instruction. push extends the tail run only when the run reproduces the
// slot exactly, so any slot sequence round-trips; front and each rebuild
// slots on the fly.
//
// Runs live in a chunked deque that pushes and pops in O(1) with no copying,
// and recycles chunks through a freelist so a squash-heavy run reuses the
// same few blocks forever.

// fetchSlot is one instruction travelling through the front end.
type fetchSlot struct {
	pc         int
	readyAt    int64
	predTaken  bool
	predTarget int
}

// maxRunSlots bounds a run's length to the bits of condMask; a longer fetch
// cycle simply continues in a new run.
const maxRunSlots = 16

// fetchRun is n slots at pcs pc..pc+n-1, all ready at readyAt. Bit i of
// condMask set means slot i (i < n-1) predicts not-taken to pc+i+1; clear
// means it carries no prediction. The last slot's prediction is lastTaken
// and lastTarget. A pc is an instruction index, so 32 bits hold it.
type fetchRun struct {
	readyAt    int64
	lastTarget int
	pc         int32
	condMask   uint16
	n          uint8
	lastTaken  bool
}

// slot rebuilds slot i of the run.
func (r *fetchRun) slot(i int) fetchSlot {
	s := fetchSlot{pc: int(r.pc) + i, readyAt: r.readyAt}
	switch {
	case i == int(r.n)-1:
		s.predTaken, s.predTarget = r.lastTaken, r.lastTarget
	case r.condMask&(1<<i) != 0:
		s.predTarget = s.pc + 1
	}
	return s
}

// fetchChunkSize is runs per chunk: 1024 x 24-byte runs = one 24 KiB block,
// large enough to amortise the link hops, small enough that the freelist
// holds no more than a few hundred KiB after a deep-queue phase.
const fetchChunkSize = 1024

type fetchChunk struct {
	runs [fetchChunkSize]fetchRun
	next *fetchChunk
}

// fetchChunkPool passes chunks from finished runs to new pipelines
// (fetchQueue.release): a deep-queue phase then allocates only when it
// outgrows every queue before it.
var fetchChunkPool sync.Pool

// fetchQueue is a chunked FIFO of runs: runs are pushed at (tail, tailIdx)
// and popped at (head, headIdx); headOff is the number of slots already
// popped from the head run. Exhausted head chunks and cleared queues return
// their blocks to free.
type fetchQueue struct {
	head, tail       *fetchChunk
	headIdx, tailIdx int // headIdx: head run; tailIdx: next run to fill
	headOff          int
	n                int // slots
	free             *fetchChunk
}

func (q *fetchQueue) len() int { return q.n }

// headRun returns the oldest run; the queue must be non-empty.
func (q *fetchQueue) headRun() *fetchRun { return &q.head.runs[q.headIdx] }

// front returns the oldest slot; the queue must be non-empty.
func (q *fetchQueue) front() fetchSlot { return q.headRun().slot(q.headOff) }

// frontReadyAt returns the oldest slot's readyAt; the queue must be
// non-empty.
func (q *fetchQueue) frontReadyAt() int64 { return q.headRun().readyAt }

func (q *fetchQueue) push(s fetchSlot) {
	if q.n > 0 {
		t := &q.tail.runs[q.tailIdx-1]
		last := int(t.pc) + int(t.n) - 1
		if t.n < maxRunSlots && s.readyAt == t.readyAt && s.pc == last+1 &&
			!t.lastTaken && (t.lastTarget == 0 || t.lastTarget == last+1) {
			t.add(s.predTaken, s.predTarget)
			q.n++
			return
		}
	}
	q.pushRun(fetchRun{readyAt: s.readyAt, pc: int32(s.pc), n: 1,
		lastTaken: s.predTaken, lastTarget: s.predTarget})
}

// add appends a slot to a non-empty run whose last slot it continues.
func (r *fetchRun) add(taken bool, target int) {
	if r.lastTarget != 0 {
		r.condMask |= 1 << (r.n - 1)
	}
	r.n++
	r.lastTaken, r.lastTarget = taken, target
}

// pushRun appends a non-empty run as a record of its own.
func (q *fetchQueue) pushRun(r fetchRun) {
	if q.tail == nil || q.tailIdx == fetchChunkSize {
		c := q.free
		if c != nil {
			q.free = c.next
			c.next = nil
		} else if c, _ = fetchChunkPool.Get().(*fetchChunk); c == nil {
			c = &fetchChunk{}
		}
		if q.tail == nil {
			q.head, q.headIdx = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.tailIdx = c, 0
	}
	q.tail.runs[q.tailIdx] = r
	q.tailIdx++
	q.n += int(r.n)
}

func (q *fetchQueue) pop() {
	q.n--
	if q.n == 0 {
		// Keep the current chunk hot instead of cycling it through the
		// freelist: the common drained-queue case restarts in place.
		q.headIdx, q.tailIdx, q.headOff = 0, 0, 0
		q.tail = q.head
		return
	}
	q.headOff++
	if q.headOff < int(q.headRun().n) {
		return
	}
	q.headOff = 0
	q.headIdx++
	if q.headIdx == fetchChunkSize {
		c := q.head
		q.head = c.next
		c.next = q.free
		q.free = c
		q.headIdx = 0
	}
}

// clear empties the queue, returning every chunk to the freelist (squash and
// redirect flush the whole front end).
func (q *fetchQueue) clear() {
	if q.head != nil {
		q.tail.next = q.free
		q.free = q.head
		q.head, q.tail = nil, nil
	}
	q.headIdx, q.tailIdx, q.headOff, q.n = 0, 0, 0, 0
}

// release hands the free chunks to fetchChunkPool for other pipelines; a
// queue that grows again takes chunks from there first.
func (q *fetchQueue) release() {
	for c := q.free; c != nil; {
		next := c.next
		c.next = nil
		fetchChunkPool.Put(c)
		c = next
	}
	q.free = nil
}

// each visits the queue's slots oldest-first. The slot passed to fn is a
// rebuilt copy, valid only during the call.
func (q *fetchQueue) each(fn func(*fetchSlot)) {
	c, idx, off := q.head, q.headIdx, q.headOff
	for n := q.n; n > 0; n-- {
		r := &c.runs[idx]
		s := r.slot(off)
		fn(&s)
		off++
		if off == int(r.n) {
			off = 0
			idx++
			if idx == fetchChunkSize {
				c, idx = c.next, 0
			}
		}
	}
}

// FetchQState is the captured fetch queue in packed, DEFLATE-compressed
// form. A literal per-slot capture is ruinous: the queue legitimately runs
// millions of slots deep (fetch follows the predicted path at full width
// while a memory-bound dispatcher drains a trickle), so a checkpoint's size
// would grow with simulated time — hundreds of megabytes per emission on
// fetch-bound loops. The slots are near-periodic, though: predicted-path pcs
// repeat the loop body and readyAt advances on a fixed cadence, so
// interleaved zigzag-varint deltas behind DEFLATE shrink the capture by two
// orders of magnitude while staying exactly lossless.
type FetchQState struct {
	N      int    `json:"n"`                // slot count
	Packed []byte `json:"packed,omitempty"` // compressed per-slot delta records
}

// state captures the queue: one pass appends each slot as zigzag-varint
// deltas of (pc, readyAt, predTarget) plus a predTaken byte, then DEFLATE
// (BestSpeed: the stream is so repetitive that higher levels buy little)
// compresses the record stream.
func (q *fetchQueue) state() FetchQState {
	st := FetchQState{N: q.n}
	if q.n == 0 {
		return st
	}
	raw := make([]byte, 0, q.n*4)
	var prevPC, prevReady, prevTarget int64
	q.each(func(s *fetchSlot) {
		raw = binary.AppendVarint(raw, int64(s.pc)-prevPC)
		raw = binary.AppendVarint(raw, s.readyAt-prevReady)
		t := byte(0)
		if s.predTaken {
			t = 1
		}
		raw = append(raw, t)
		raw = binary.AppendVarint(raw, int64(s.predTarget)-prevTarget)
		prevPC, prevReady, prevTarget = int64(s.pc), s.readyAt, int64(s.predTarget)
	})
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(err) // only invalid levels fail; BestSpeed is valid
	}
	zw.Write(raw)
	zw.Close()
	st.Packed = buf.Bytes()
	return st
}

// setState replaces the queue's contents with a captured state. Slot pcs are
// validated against progLen: the packed form is opaque on the wire, and a
// corrupt pc would otherwise index the program out of range mid-run.
func (q *fetchQueue) setState(st FetchQState, progLen int) error {
	q.clear()
	if st.N == 0 {
		return nil
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(st.Packed)))
	if err != nil {
		return fmt.Errorf("pipeline: fetch queue state: %v", err)
	}
	pos := 0
	next := func() (int64, error) {
		v, n := binary.Varint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("pipeline: fetch queue state truncated at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	var pc, ready, target int64
	for i := 0; i < st.N; i++ {
		d, err := next()
		if err != nil {
			return err
		}
		pc += d
		if d, err = next(); err != nil {
			return err
		}
		ready += d
		if pos >= len(raw) {
			return fmt.Errorf("pipeline: fetch queue state truncated at byte %d", pos)
		}
		taken := raw[pos] != 0
		pos++
		if d, err = next(); err != nil {
			return err
		}
		target += d
		if pc < 0 || pc >= int64(progLen) {
			return fmt.Errorf("pipeline: fetch queue slot %d pc %d out of range", i, pc)
		}
		q.push(fetchSlot{pc: int(pc), readyAt: ready, predTaken: taken, predTarget: int(target)})
	}
	if pos != len(raw) {
		return fmt.Errorf("pipeline: fetch queue state carries %d trailing bytes", len(raw)-pos)
	}
	return nil
}
