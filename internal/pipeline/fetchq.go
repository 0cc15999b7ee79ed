package pipeline

import "fmt"

// The fetch queue is the front end's bounded FIFO (gem5 O3's
// fetchQueueSize): a fixed ring that fetch fills at up to Width slots per
// cycle and dispatch drains once each slot's FrontEndDelay has passed.
// Fetch stops as soon as the ring is full, part-way through a cycle if need
// be. The capacity is derived from the configuration (fetchQueueCap), so
// the ring is allocated once in New and never grows.

// FetchSlot is one instruction travelling through the front end: its pc,
// the cycle dispatch may take it, and the branch prediction fetch made for
// it. A checkpoint stores the queue's slots literally.
type FetchSlot struct {
	PC         int   `json:"pc"`
	ReadyAt    int64 `json:"readyAt"`
	PredTaken  bool  `json:"predTaken,omitempty"`
	PredTarget int   `json:"predTarget,omitempty"`
}

// fetchQueueCap sizes the ring: two front-end delays of full-width fetch,
// so that fetch runs a full delay ahead of the slots in flight, and never
// less than one cycle's fetch. It is clamped like the ROB slab, since the
// configuration comes from a request. Table I (width 8, delay 4) gives 64.
//
// The capacity is not free to choose: fetching later lets the branch
// predictor train before it predicts, and how that moves timing is not
// monotonic in the capacity (DESIGN.md, "The fetch queue").
func fetchQueueCap(cfg Config) int {
	return min(max(2*cfg.Width*cfg.FrontEndDelay, cfg.Width, 0), maxSlab)
}

// fetchQueue is a ring of slots: n of them, oldest at buf[head].
type fetchQueue struct {
	buf  []FetchSlot
	head int
	n    int
}

func newFetchQueue(capacity int) fetchQueue {
	return fetchQueue{buf: make([]FetchSlot, capacity)}
}

func (q *fetchQueue) len() int { return q.n }

func (q *fetchQueue) full() bool { return q.n == len(q.buf) }

// at returns slot i counted from the oldest; i must be below len.
func (q *fetchQueue) at(i int) *FetchSlot {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// front returns the oldest slot; the queue must be non-empty.
func (q *fetchQueue) front() FetchSlot { return q.buf[q.head] }

// frontReadyAt returns the oldest slot's readyAt; the queue must be
// non-empty.
func (q *fetchQueue) frontReadyAt() int64 { return q.buf[q.head].ReadyAt }

// push appends a slot; the queue must not be full.
func (q *fetchQueue) push(s FetchSlot) {
	q.n++
	*q.at(q.n - 1) = s
}

// pop drops the oldest slot; the queue must be non-empty.
func (q *fetchQueue) pop() {
	q.n--
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
}

// clear empties the queue (squash and redirect flush the whole front end).
func (q *fetchQueue) clear() { q.head, q.n = 0, 0 }

// state returns a copy of the queue's slots, oldest first.
func (q *fetchQueue) state() []FetchSlot {
	if q.n == 0 {
		return nil
	}
	s := make([]FetchSlot, q.n)
	for i := range s {
		s[i] = *q.at(i)
	}
	return s
}

// setState replaces the queue's contents with captured slots. A checkpoint
// comes from a journal, so it is refused if it holds more slots than the
// ring or a pc outside the program, which would index the program out of
// range mid-run.
func (q *fetchQueue) setState(slots []FetchSlot, progLen int) error {
	if len(slots) > len(q.buf) {
		return fmt.Errorf("pipeline: checkpoint fetch queue holds %d slots, the ring holds %d", len(slots), len(q.buf))
	}
	for i, s := range slots {
		if s.PC < 0 || s.PC >= progLen {
			return fmt.Errorf("pipeline: checkpoint fetch queue slot %d pc %d out of range", i, s.PC)
		}
	}
	q.head, q.n = 0, copy(q.buf, slots)
	return nil
}
