package lsu

import (
	"math/rand"
	"reflect"
	"testing"

	"srvsim/internal/core"
	"srvsim/internal/isa"
)

// checkTables recounts the per-instance counters from the live list and
// compares them with the LSU's instance table, and checks that every
// registered key is found by lookup.
func checkTables(t *testing.T, l *LSU) {
	t.Helper()
	type counts struct{ live, stores, loads int }
	want := map[int]counts{}
	keyed := 0
	for _, e := range l.Entries() {
		if e.Instance == NoInstance {
			continue
		}
		c := want[e.Instance]
		c.live++
		if e.Valid && e.IsStore {
			c.stores++
		}
		if e.Valid && !e.IsStore {
			c.loads++
		}
		want[e.Instance] = c
		if e.keyed {
			keyed++
			if got := l.keys.lookup(e.key); got != e {
				t.Errorf("lookup(%+v) found entry %p, want its owner %p", e.key, got, e)
			}
		}
	}
	if len(l.insts) != len(want) {
		t.Errorf("instance table holds %d records, want %d", len(l.insts), len(want))
	}
	for inst, c := range want {
		r := l.inst(inst)
		got := counts{r.live, r.validStores, r.validLoads}
		if got != c {
			t.Errorf("instance %d counters = %+v, want %+v", inst, got, c)
		}
	}
	n := 0
	for _, head := range l.keys.buckets {
		for e := head; e != nil; e = e.knext {
			n++
		}
	}
	if n != keyed {
		t.Errorf("key table chains hold %d entries, want the %d keyed live entries", n, keyed)
	}
}

// TestManyLiveInstances makes three times as many live region instances as
// the instance table holds before it grows, and checks the counters, the
// SRV-id reuse rule and a State/SetState round trip.
func TestManyLiveInstances(t *testing.T) {
	const n = 3 * instSlots
	l, _, ctrl := newLSU(4 * n)
	must(t, ctrl.Start(1, isa.DirUp))
	entries := map[lsuKey]*Entry{}
	for inst := 0; inst < n; inst++ {
		seq := int64(10 * inst)
		st := reserve(t, l, inst, 4, inst%isa.NumLanes, true, seq+1)
		l.ExecStore(st, core.KindElem, 0x1000+uint64(64*inst), 4, isa.DirUp, all(), all(),
			vecOf(func(i int) int64 { return int64(inst) }), seq+1)
		ld := reserve(t, l, inst, 5, -1, false, seq+2)
		l.ExecLoad(ld, core.KindContig, 0x1000+uint64(64*inst), 4, isa.DirUp, all(), all(), seq+2)
		entries[lsuKey{inst, 4, inst % isa.NumLanes}] = st
		entries[lsuKey{inst, 5, -1}] = ld
		if inst%2 == 0 { // a reserved entry that never executes: live, not valid
			entries[lsuKey{inst, 6, 0}] = reserve(t, l, inst, 6, 0, true, seq+3)
		}
	}
	if len(l.insts) != n {
		t.Fatalf("instance table holds %d records, want %d", len(l.insts), n)
	}
	checkTables(t, l)

	reuse := func(l *LSU, what string) {
		t.Helper()
		for k, e := range entries {
			isStore := k.id != 5
			if got := reserve(t, l, k.instance, k.id, k.lane, isStore, 999); got.AllocID() != e.AllocID() {
				t.Errorf("%s: Reserve%+v rebound entry %d, want %d", what, k, got.AllocID(), e.AllocID())
			}
		}
	}
	before := l.Len()
	reuse(l, "live")
	if l.Len() != before {
		t.Errorf("SRV-id reuse allocated: %d live entries, want %d", l.Len(), before)
	}

	st := l.State()
	r, _, rctrl := newLSU(4 * n)
	must(t, rctrl.Start(1, isa.DirUp))
	must(t, r.SetState(st))
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Error("State after SetState differs from the captured state")
	}
	checkTables(t, r)
	reuse(r, "restored")

	// Free instances out of order on both LSUs; the tables must shrink and
	// stay consistent, and the two must keep agreeing.
	for _, inst := range []int{5, 0, n - 1, 7, 12, 1} {
		l.DiscardRegion(inst)
		r.DiscardRegion(inst)
		checkTables(t, l)
		checkTables(t, r)
	}
	if len(l.insts) != n-6 {
		t.Errorf("instance table holds %d records after freeing 6, want %d", len(l.insts), n-6)
	}
	if !reflect.DeepEqual(l.State(), r.State()) {
		t.Error("original and restored LSUs diverged after freeing the same instances")
	}
}

// keyModel is the SRV-id rebind rule as a plain map from identity to entry:
// what the key table must answer for every lookup.
type keyModel struct {
	owner map[lsuKey]*Entry
	key   map[*Entry]lsuKey // identity per entry, while it holds one
}

func (m *keyModel) reserve(e *Entry, k lsuKey) {
	m.owner[k] = e
	m.key[e] = k
}

func (m *keyModel) unlink(e *Entry) {
	if k, ok := m.key[e]; ok {
		if m.owner[k] == e {
			delete(m.owner, k)
		}
		delete(m.key, e)
	}
}

func (m *keyModel) setLane(e *Entry, lane int) {
	k, ok := m.key[e]
	if !ok {
		return
	}
	if m.owner[k] == e {
		delete(m.owner, k)
	}
	k.lane = lane
	if old := m.owner[k]; old != nil && old.alloc < e.alloc {
		delete(m.key, e)
		return
	}
	m.owner[k] = e
	m.key[e] = k
}

// TestKeyTableMatchesMapModel drives random reservations, lane retargets,
// releases, region frees and State/SetState round trips, and checks after
// every step that the key table answers each lookup as the map model does.
func TestKeyTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, _, ctrl := newLSU(48)
	must(t, ctrl.Start(1, isa.DirUp))
	m := &keyModel{owner: map[lsuKey]*Entry{}, key: map[*Entry]lsuKey{}}
	seq := int64(0)
	for step := 0; step < 4000; step++ {
		live := l.Entries()
		switch op := rng.Intn(10); {
		case op < 5:
			inst := rng.Intn(4) - 1 // NoInstance or one of three instances
			k := lsuKey{inst, rng.Intn(6), rng.Intn(4) - 1}
			seq++
			want := m.owner[k]
			r := l.Reserve(k.instance, k.id, k.lane, rng.Intn(2) == 0, seq)
			switch {
			case inst != NoInstance && want != nil:
				if r.Entry != want {
					t.Fatalf("step %d: Reserve%+v = %p, want the owner %p", step, k, r.Entry, want)
				}
			case r.OK && inst != NoInstance:
				m.reserve(r.Entry, k)
			}
		case op < 7 && len(live) > 0:
			e := live[rng.Intn(len(live))]
			lane := rng.Intn(4) - 1
			if e.Lane != lane { // retargeting to the current lane is a no-op
				m.setLane(e, lane)
			}
			l.SetLane(e, lane)
		case op < 8 && len(live) > 0:
			e := live[rng.Intn(len(live))]
			if e.Instance == NoInstance {
				l.Release(e)
				m.unlink(e)
			}
		case op < 9:
			inst := rng.Intn(3)
			for _, e := range live {
				if e.Instance == inst {
					m.unlink(e)
				}
			}
			l.DiscardRegion(inst)
		default:
			// A round trip keeps every identity and its owner. SetState
			// recycles the Entry values, so carry the model across by
			// allocation stamp.
			stamp := map[*Entry]int64{}
			for _, e := range live {
				stamp[e] = e.alloc
			}
			must(t, l.SetState(l.State()))
			byStamp := map[int64]*Entry{}
			for _, e := range l.Entries() {
				byStamp[e.alloc] = e
			}
			next := &keyModel{owner: map[lsuKey]*Entry{}, key: map[*Entry]lsuKey{}}
			for e, k := range m.key {
				next.key[byStamp[stamp[e]]] = k
			}
			for k, e := range m.owner {
				next.owner[k] = byStamp[stamp[e]]
			}
			m = next
		}
		for _, e := range l.Entries() {
			k, ok := m.key[e]
			if ok != e.inMap || ok && k != e.key {
				t.Fatalf("step %d: entry %d identity %+v/%v, model %+v/%v", step, e.alloc, e.key, e.inMap, k, ok)
			}
			if ok {
				if got := l.keys.lookup(k); got != m.owner[k] {
					t.Fatalf("step %d: lookup(%+v) = %p, model owner %p", step, k, got, m.owner[k])
				}
			}
		}
		checkTables(t, l)
	}
}

// TestStateKeepsRebindOwner: once SetLane moves an older entry onto the
// identity a younger one holds, the older entry owns it, and a State/SetState
// round trip must leave it the owner rather than hand the identity to the
// younger holder.
func TestStateKeepsRebindOwner(t *testing.T) {
	l, _, ctrl := newLSU(8)
	must(t, ctrl.Start(1, isa.DirUp))
	first := l.Reserve(0, 7, -1, false, 1).Entry
	l.Reserve(0, 7, 3, false, 2)
	l.SetLane(first, 3)
	if got := l.Reserve(0, 7, 3, false, 3).Entry.AllocID(); got != 1 {
		t.Fatalf("live LSU rebinds (0,7,3) to alloc %d, want 1", got)
	}
	must(t, l.SetState(l.State()))
	if got := l.Reserve(0, 7, 3, false, 4).Entry.AllocID(); got != 1 {
		t.Fatalf("restored LSU rebinds (0,7,3) to alloc %d, want 1", got)
	}
}
