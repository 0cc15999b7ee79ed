package lsu

import (
	"fmt"

	"srvsim/internal/bitvec"
	"srvsim/internal/core"
	"srvsim/internal/isa"
)

// Serialisable LSU state for the pipeline checkpoint. Entries are captured
// in live-list (allocation) order with their allocation stamps, so entry
// pointers held elsewhere (robEntry.lsuEntries) can be re-linked by stamp
// after a restore. Derived structure — the per-line address index, the
// validity counters, the per-instance counts and the key table — is
// rebuilt from the captured entries rather than serialised; the rebind
// registration itself (key + inMap) IS captured, because SetLane can leave
// an entry carrying a key while deregistered, which a rebuild cannot infer.

// EntryState is one captured LSU entry.
type EntryState struct {
	Alloc    int64 `json:"alloc"` // allocation stamp: the entry's identity
	Instance int   `json:"instance"`
	ID       int   `json:"id"`
	Lane     int   `json:"lane"`
	DispSeq  int64 `json:"dispSeq"`
	Seq      int64 `json:"seq"`
	IsStore  bool  `json:"isStore"`

	Kind core.Kind     `json:"kind"`
	Elem int           `json:"elem"`
	Dir  isa.Direction `json:"dir"`

	Valid    bool   `json:"valid"`
	Addr     uint64 `json:"addr"`
	ActLanes uint64 `json:"actLanes"`

	Data      []byte    `json:"data,omitempty"`
	ValidMask [2]uint64 `json:"validMask"`
	Spec      bool      `json:"spec"`
	Committed bool      `json:"committed"`

	InMap   bool `json:"inMap"`
	KeyInst int  `json:"keyInst"`
	KeyID   int  `json:"keyID"`
	KeyLane int  `json:"keyLane"`
}

// LSUState is the serialisable state of the LSU.
type LSUState struct {
	Capacity int          `json:"capacity"`
	AllocSeq int64        `json:"allocSeq"`
	Entries  []EntryState `json:"entries"` // live-list (allocation) order
	Stats    Stats        `json:"stats"`
}

// AllocID returns the entry's allocation stamp, the identity checkpoints use
// to re-link external pointers to LSU entries.
func (e *Entry) AllocID() int64 { return e.alloc }

// State captures the LSU's live entries and statistics.
func (l *LSU) State() LSUState {
	st := LSUState{Capacity: l.capacity, AllocSeq: l.allocSeq,
		Entries: make([]EntryState, 0, l.live), Stats: l.Stats}
	for e := l.head; e != nil; e = e.next {
		es := EntryState{
			Alloc: e.alloc, Instance: e.Instance, ID: e.ID, Lane: e.Lane,
			DispSeq: e.DispSeq, Seq: e.Seq, IsStore: e.IsStore,
			Kind: e.Kind, Elem: e.Elem, Dir: e.Dir,
			Valid: e.Valid, Addr: e.Addr, ActLanes: uint64(e.ActLanes),
			ValidMask: [2]uint64(e.valid), Spec: e.Spec, Committed: e.Committed,
			InMap: e.inMap, KeyInst: e.key.instance, KeyID: e.key.id, KeyLane: e.key.lane,
		}
		if len(e.Data) > 0 {
			es.Data = append([]byte(nil), e.Data...)
		}
		st.Entries = append(st.Entries, es)
	}
	return st
}

// SetState replaces the LSU's entries with a captured state, rebuilding the
// address index, validity counters, instance counts and key table.
func (l *LSU) SetState(st LSUState) error {
	if st.Capacity != l.capacity {
		return fmt.Errorf("lsu: capacity mismatch: state %d, lsu %d", st.Capacity, l.capacity)
	}
	// Recycle the current live list and clear every derived structure.
	for e := l.head; e != nil; {
		next := e.next
		e.prev = nil
		e.next = l.free
		l.free = e
		e = next
	}
	l.head, l.tail, l.live = nil, nil, 0
	clear(l.keys.buckets)
	l.insts = l.insts[:0]
	l.validStores, l.validLoadsOutside = 0, 0
	for _, x := range []*lineIndex{&l.loadLines, &l.storeLines} {
		clear(x.buckets)
		x.maxSpan = 0
	}
	l.allocSeq = st.AllocSeq
	l.Stats = st.Stats

	for i := range st.Entries {
		es := &st.Entries[i]
		e := l.free
		if e == nil {
			e = new(Entry)
		} else {
			l.free = e.next
			data := e.Data
			*e = Entry{}
			e.Data = data[:0]
		}
		e.alloc = es.Alloc
		e.Instance, e.ID, e.Lane = es.Instance, es.ID, es.Lane
		e.DispSeq, e.Seq, e.IsStore = es.DispSeq, es.Seq, es.IsStore
		e.Kind, e.Elem, e.Dir = es.Kind, es.Elem, es.Dir
		e.Valid, e.Addr, e.ActLanes = es.Valid, es.Addr, bitvec.LaneMask(es.ActLanes)
		e.Data = append(e.Data[:0], es.Data...)
		e.valid = bitvec.Mask128(es.ValidMask)
		e.Spec, e.Committed = es.Spec, es.Committed
		e.key = lsuKey{instance: es.KeyInst, id: es.KeyID, lane: es.KeyLane}
		e.inMap = es.InMap

		// Link at the tail: captured order is allocation order.
		e.prev = l.tail
		e.next = nil
		if l.tail != nil {
			l.tail.next = e
		} else {
			l.head = e
		}
		l.tail = e
		l.live++

		if e.Instance != NoInstance {
			l.addInst(e.Instance)
		}
		if e.inMap {
			// In allocation order, a younger holder of a key displaces an
			// older one.
			l.keys.claim(e)
		}
		if e.Valid {
			l.addValid(e, 1)
			l.reindex(e)
		}
	}
	return nil
}
