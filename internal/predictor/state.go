package predictor

// Serialisable predictor state for the pipeline checkpoint. Table geometry
// is captured alongside the contents so a restore can be validated against a
// predictor built from the same configuration.

// BTBEntryState is one captured BTB slot.
type BTBEntryState struct {
	PC     int  `json:"pc"`
	Target int  `json:"target"`
	Valid  bool `json:"valid"`
}

// BranchState is the serialisable state of the tournament predictor.
type BranchState struct {
	Cfg     BranchConfig    `json:"cfg"`
	Local   []uint8         `json:"local"`
	Global  []uint8         `json:"global"`
	Chooser []uint8         `json:"chooser"`
	GHR     uint64          `json:"ghr"`
	BTB     []BTBEntryState `json:"btb"`
	RAS     []int           `json:"ras"`
	Stats   BranchStats     `json:"stats"`
}

// State captures the predictor's tables, history and statistics.
func (b *Branch) State() BranchState {
	st := BranchState{
		Cfg:     b.cfg,
		Local:   make([]uint8, len(b.local)),
		Global:  make([]uint8, len(b.global)),
		Chooser: make([]uint8, len(b.chooser)),
		GHR:     b.ghr,
		BTB:     make([]BTBEntryState, len(b.btb)),
		RAS:     append([]int(nil), b.ras...),
		Stats:   b.Stats,
	}
	for i, c := range b.local {
		st.Local[i] = uint8(c)
	}
	for i, c := range b.global {
		st.Global[i] = uint8(c)
	}
	for i, c := range b.chooser {
		st.Chooser[i] = uint8(c)
	}
	for i, e := range b.btb {
		st.BTB[i] = BTBEntryState{PC: e.pc, Target: e.target, Valid: e.valid}
	}
	return st
}

// SetState replaces the predictor's tables with a captured state, resizing
// to the captured geometry.
func (b *Branch) SetState(st BranchState) {
	b.cfg = st.Cfg
	b.local = make([]counter, len(st.Local))
	for i, c := range st.Local {
		b.local[i] = counter(c)
	}
	b.global = make([]counter, len(st.Global))
	for i, c := range st.Global {
		b.global[i] = counter(c)
	}
	b.chooser = make([]counter, len(st.Chooser))
	for i, c := range st.Chooser {
		b.chooser[i] = counter(c)
	}
	b.ghr = st.GHR
	b.btb = make([]btbEntry, len(st.BTB))
	for i, e := range st.BTB {
		b.btb[i] = btbEntry{pc: e.PC, target: e.Target, valid: e.Valid}
	}
	b.ras = append(make([]int, 0, st.Cfg.RASEntries), st.RAS...)
	b.Stats = st.Stats
}

// StoreSetState is the serialisable state of the store-set predictor.
type StoreSetState struct {
	SSIT   []int         `json:"ssit"`
	NextID int           `json:"nextID"`
	Stats  StoreSetStats `json:"stats"`
}

// State captures the predictor's tables and statistics.
func (s *StoreSet) State() StoreSetState {
	return StoreSetState{
		SSIT:   append([]int(nil), s.ssit...),
		NextID: s.nextID,
		Stats:  s.Stats,
	}
}

// SetState replaces the predictor's tables with a captured state.
func (s *StoreSet) SetState(st StoreSetState) {
	s.ssit = append(s.ssit[:0], st.SSIT...)
	s.nextID = st.NextID
	s.Stats = st.Stats
}
