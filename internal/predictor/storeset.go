package predictor

// StoreSet implements the store-set memory-dependence predictor of Chrysos
// and Emer (ISCA 1998), referenced by paper §IV-B: loads are reordered with
// respect to earlier stores based on its outcome. A load and the stores it
// has conflicted with share a store-set ID via the Store Set ID Table
// (SSIT). The pipeline reads the sets (SetOf) and trains them (Assign); it
// keeps no table of in-flight stores per set.
type StoreSet struct {
	ssit    []int // PC -> store-set id (-1 = none)
	maxSets int   // set IDs are allocated modulo maxSets
	nextID  int
	Stats   StoreSetStats
}

// StoreSetStats counts predictor events.
type StoreSetStats struct {
	Assignments int64 // violation-driven set merges/creations
}

// NewStoreSet returns a predictor with the given SSIT size (power of two)
// and maximum number of store sets.
func NewStoreSet(ssitSize, maxSets int) *StoreSet {
	s := &StoreSet{ssit: make([]int, ssitSize), maxSets: maxSets}
	for i := range s.ssit {
		s.ssit[i] = -1
	}
	return s
}

func (s *StoreSet) idx(pc int) int { return pc & (len(s.ssit) - 1) }

// Assign merges a violating (load, store) PC pair into a common store set.
func (s *StoreSet) Assign(loadPC, storePC int) {
	s.Stats.Assignments++
	li, si := s.idx(loadPC), s.idx(storePC)
	switch {
	case s.ssit[li] == -1 && s.ssit[si] == -1:
		id := s.nextID % s.maxSets
		s.nextID++
		s.ssit[li], s.ssit[si] = id, id
	case s.ssit[li] == -1:
		s.ssit[li] = s.ssit[si]
	case s.ssit[si] == -1:
		s.ssit[si] = s.ssit[li]
	default:
		// Both assigned: converge on the smaller ID (the paper's rule).
		if s.ssit[li] < s.ssit[si] {
			s.ssit[si] = s.ssit[li]
		} else {
			s.ssit[li] = s.ssit[si]
		}
	}
}

// SetOf returns the store-set ID assigned to pc, or -1.
func (s *StoreSet) SetOf(pc int) int { return s.ssit[s.idx(pc)] }
