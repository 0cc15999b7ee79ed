package pipeline

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFetchQueueMatchesModel drives the ring with random pushes, pops and
// clears against a plain slice of slots: len, full, front and the captured
// state always agree, across many wraps of the ring, and the captured state
// restores into a fresh ring slot for slot.
func TestFetchQueueMatchesModel(t *testing.T) {
	const capacity, progLen = 13, 50
	rng := rand.New(rand.NewSource(1))
	q := newFetchQueue(capacity)
	var model []FetchSlot
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(100); {
		case k < 55 && len(model) < capacity:
			s := FetchSlot{PC: rng.Intn(progLen), ReadyAt: int64(step), PredTaken: rng.Intn(2) == 0, PredTarget: rng.Intn(progLen)}
			q.push(s)
			model = append(model, s)
		case k < 98 && len(model) > 0:
			q.pop()
			model = model[1:]
		case k >= 98:
			q.clear()
			model = nil
		}
		if q.len() != len(model) || q.full() != (len(model) == capacity) {
			t.Fatalf("step %d: len %d full %v, model holds %d of %d", step, q.len(), q.full(), len(model), capacity)
		}
		if len(model) > 0 && (q.front() != model[0] || q.frontReadyAt() != model[0].ReadyAt) {
			t.Fatalf("step %d: front %+v, want %+v", step, q.front(), model[0])
		}
		if step%97 == 0 {
			st := q.state()
			if !slices.Equal(st, model) {
				t.Fatalf("step %d: state %+v, want %+v", step, st, model)
			}
			r := newFetchQueue(capacity)
			if err := r.setState(st, progLen); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.state(), model) {
				t.Fatalf("step %d: restored %+v, want %+v", step, r.state(), model)
			}
		}
	}
}

// TestFetchQueueCap pins the capacity rule: 2 x Width x FrontEndDelay, at
// least Width, and within [0, maxSlab] whatever a request configures.
func TestFetchQueueCap(t *testing.T) {
	cases := []struct{ width, delay, want int }{
		{8, 4, 64}, // Table I
		{4, 4, 32},
		{8, 0, 8},
		{8, 1, 16},
		{64, 64, maxSlab},
		{1 << 40, 1 << 40, maxSlab},
		{0, 4, 0},
		{-8, 4, 0},
		{8, -4, 8},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Width, cfg.FrontEndDelay = c.width, c.delay
		if got := fetchQueueCap(cfg); got != c.want {
			t.Errorf("width %d delay %d: capacity %d, want %d", c.width, c.delay, got, c.want)
		}
	}
}
