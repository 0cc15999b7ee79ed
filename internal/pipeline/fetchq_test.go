package pipeline

import (
	"math/rand"
	"testing"
)

// fetchModel is the reference for fetchQueue: a plain slice of slots.
type fetchModel struct{ slots []fetchSlot }

func (m *fetchModel) push(s fetchSlot) { m.slots = append(m.slots, s) }
func (m *fetchModel) pop()             { m.slots = m.slots[1:] }
func (m *fetchModel) clear()           { m.slots = nil }

// fetchCycle appends one fetch cycle's slots to both queues, shaped like
// Pipeline.fetch: up to width consecutive pcs sharing a readyAt, ended early
// by a taken branch or a halt. Now and then a slot carries a prediction
// fetch never makes, so push's fallback to a fresh run is exercised too.
func fetchCycle(rng *rand.Rand, q *fetchQueue, m *fetchModel, pc *int, readyAt int64, width, progLen int) {
	for n := 0; n < width; n++ {
		s := fetchSlot{pc: *pc, readyAt: readyAt}
		end := false
		switch k := rng.Intn(20); {
		case k < 10: // non-branch
		case k < 14: // conditional branch predicted not taken
			s.predTarget = s.pc + 1
		case k < 17: // taken branch (conditional or jump): ends the cycle
			s.predTaken, s.predTarget = true, rng.Intn(progLen)
			end = true
		case k < 18: // halt: ends the cycle
			end = true
		default: // a shape fetch never produces
			s.predTaken, s.predTarget = rng.Intn(2) == 0, rng.Intn(progLen)
		}
		q.push(s)
		m.push(s)
		if end {
			*pc = rng.Intn(progLen)
			return
		}
		*pc = (*pc + 1) % progLen
	}
}

// checkFetchQueue compares q with the model: len and front always, every
// slot through each when full is set.
func checkFetchQueue(t *testing.T, step int, q *fetchQueue, m *fetchModel, full bool) {
	t.Helper()
	if q.len() != len(m.slots) {
		t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(m.slots))
	}
	if len(m.slots) > 0 {
		if got := q.front(); got != m.slots[0] {
			t.Fatalf("step %d: front = %+v, want %+v", step, got, m.slots[0])
		}
		if got := q.frontReadyAt(); got != m.slots[0].readyAt {
			t.Fatalf("step %d: frontReadyAt = %d, want %d", step, got, m.slots[0].readyAt)
		}
	}
	if !full {
		return
	}
	i := 0
	q.each(func(s *fetchSlot) {
		if i >= len(m.slots) || *s != m.slots[i] {
			t.Fatalf("step %d: each slot %d = %+v, model has %d slots", step, i, *s, len(m.slots))
		}
		i++
	})
	if i != len(m.slots) {
		t.Fatalf("step %d: each visited %d slots, want %d", step, i, len(m.slots))
	}
}

// fetchChunks counts the chunks a queue spans.
func fetchChunks(q *fetchQueue) int {
	n := 0
	for c := q.head; c != nil && q.len() > 0; c = c.next {
		n++
	}
	return n
}

// TestFetchQueueMatchesModel drives the run-length queue with random
// fetch-shaped streams (runs ended by taken branches, by the width limit,
// and by the 16-slot run cap; queues deep enough to span several chunks;
// partly consumed head runs; clears) and checks front and len after every operation, and each and the
// state/setState round trip often, against a plain slice.
func TestFetchQueueMatchesModel(t *testing.T) {
	const progLen = 50
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q fetchQueue
		var m fetchModel
		pc, readyAt := 0, int64(1)
		// Even seeds pop and clear less, so the queue grows across several
		// chunks.
		steps, pushPct, maxPop := 2000, 45, 12
		if seed%2 == 0 {
			steps, pushPct, maxPop = 5000, 60, 3
		}
		deepest := 0
		for step := 0; step < steps; step++ {
			switch k := rng.Intn(100); {
			case k < pushPct:
				width := 1 + rng.Intn(8)
				if rng.Intn(50) == 0 {
					width = 100 // past the 16-slot run cap
				}
				// Mostly a new readyAt per cycle, as fetch makes; sometimes
				// the same one, so runs can also span fetch calls.
				readyAt += int64(rng.Intn(3))
				fetchCycle(rng, &q, &m, &pc, readyAt, width, progLen)
			case k < 97:
				for n := rng.Intn(maxPop); n > 0 && len(m.slots) > 0; n-- {
					q.pop()
					m.pop()
				}
			case k < 98:
				if seed%2 == 0 && rng.Intn(20) != 0 {
					break // deep seeds clear rarely
				}
				q.clear()
				m.clear()
			default:
				var r fetchQueue
				if err := r.setState(q.state(), progLen); err != nil {
					t.Fatalf("seed %d step %d: setState: %v", seed, step, err)
				}
				checkFetchQueue(t, step, &r, &m, true)
				// Keep going on the restored queue: its runs start at the
				// old head's offset, not at a run boundary.
				q = r
			}
			checkFetchQueue(t, step, &q, &m, step%32 == 0)
			deepest = max(deepest, fetchChunks(&q))
		}
		if seed == 2 && deepest < 2 {
			t.Fatalf("seed 2 peaked at %d chunk(s); the test means to cross chunk boundaries", deepest)
		}
	}
}

// TestFetchQueueDeepChunks fills the queue past several chunks with
// one-slot runs (every slot a taken branch), drains it half way through a
// chunk, refills and drains it completely, so chunk hand-off and the
// freelist are exercised in both directions.
func TestFetchQueueDeepChunks(t *testing.T) {
	var q fetchQueue
	var m fetchModel
	push := func(n int) {
		for i := 0; i < n; i++ {
			s := fetchSlot{pc: i % 7, readyAt: int64(i), predTaken: true, predTarget: 3}
			q.push(s)
			m.push(s)
		}
	}
	push(3*fetchChunkSize + 17)
	checkFetchQueue(t, 0, &q, &m, true)
	for i := 0; i < fetchChunkSize+fetchChunkSize/2; i++ {
		q.pop()
		m.pop()
	}
	checkFetchQueue(t, 1, &q, &m, true)
	push(2 * fetchChunkSize)
	checkFetchQueue(t, 2, &q, &m, true)
	for len(m.slots) > 0 {
		q.pop()
		m.pop()
	}
	checkFetchQueue(t, 3, &q, &m, true)
	push(10)
	checkFetchQueue(t, 4, &q, &m, true)
}

// TestFetchQueueRunsAreCompact pins the point of the run encoding: a
// fetch-shaped stream of full-width cycles takes one run per cycle.
func TestFetchQueueRunsAreCompact(t *testing.T) {
	var q fetchQueue
	for c := 0; c < 100; c++ {
		for i := 0; i < 8; i++ {
			s := fetchSlot{pc: c*8 + i, readyAt: int64(c)}
			if i%3 == 1 {
				s.predTarget = s.pc + 1 // not-taken conditional branch
			}
			q.push(s)
		}
	}
	if q.len() != 800 || q.tailIdx != 100 || q.head != q.tail {
		t.Fatalf("800 slots in 100 full-width cycles: len %d, %d runs", q.len(), q.tailIdx)
	}
}
