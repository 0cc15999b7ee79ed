package pipeline

import (
	"fmt"

	"srvsim/internal/bitvec"
	"srvsim/internal/core"
	"srvsim/internal/isa"
	"srvsim/internal/lsu"
)

// allLanes is the all-true lane mask, built once: the scalar memory path
// and the issue stage's full-mask test need it every cycle.
var allLanes = isa.AllTrue()

// findSrc resolves the operand bound to rename index ri at dispatch: the
// producer entry while it is still in flight, nil once it has committed (the
// architectural file then holds exactly the forwarded value — commit is in
// order, so no younger writer can have overwritten it before this
// instruction executes) or when the file held the value all along.
func (p *Pipeline) findSrc(e *robEntry, ri int) *robEntry {
	srcs := e.srcs()
	for i := range srcs {
		s := &srcs[i]
		if int(s.ri) == ri {
			if s.prod != nil && s.prodSeq > p.committedSeq {
				return s.prod
			}
			return nil
		}
	}
	return nil
}

func (p *Pipeline) readScalar(e *robEntry, idx int) int64 {
	if prod := p.findSrc(e, idx); prod != nil {
		return prod.sclRes
	}
	return p.S[idx]
}

func (p *Pipeline) readVec(e *robEntry, idx int) isa.Vec {
	if prod := p.findSrc(e, isa.NumSclRegs+idx); prod != nil {
		return prod.pay.vecRes
	}
	return p.Vr[idx]
}

func (p *Pipeline) readPred(e *robEntry, idx int) isa.Pred {
	if prod := p.findSrc(e, isa.NumSclRegs+isa.NumVecRegs+idx); prod != nil {
		return prod.pay.predRes
	}
	return p.Pr[idx]
}

// masks returns the lane masks for a (vector) instruction: update is the
// set of lanes whose state this execution refreshes (the SRV-replay mask
// inside a region); act additionally folds in the governing predicate.
func (p *Pipeline) masks(e *robEntry) (update, act isa.Pred) {
	update = allLanes
	if e.regionIdx >= 0 && p.Ctrl.InRegion() {
		update = p.Ctrl.Replay()
	}
	act = update
	if e.inst.Pg != isa.NoPred {
		pg := p.readPred(e, e.inst.Pg)
		for i := range act {
			act[i] = act[i] && pg[i]
		}
	}
	return update, act
}

// oldDest returns the previous value of the vector/predicate destination for
// merging predication.
func (p *Pipeline) oldVec(e *robEntry) isa.Vec {
	if !e.hasWrite || e.writeRef.Class != isa.RegVector {
		return isa.Vec{}
	}
	if prod := e.prevWriter; prod != nil && e.prevWriterSeq > p.committedSeq {
		return prod.pay.vecRes
	}
	// No in-flight previous writer (or it committed, possibly recycled): the
	// architectural file holds its value.
	return p.Vr[e.writeRef.Idx]
}

func (p *Pipeline) oldPred(e *robEntry) isa.Pred {
	if !e.hasWrite || e.writeRef.Class != isa.RegPred {
		return isa.Pred{}
	}
	if prod := e.prevWriter; prod != nil && e.prevWriterSeq > p.committedSeq {
		return prod.pay.predRes
	}
	return p.Pr[e.writeRef.Idx]
}

// execute performs the functional work of one instruction at issue time and
// schedules its completion. It returns true when it redirected the front end
// (branch mispredict, replay, fallback pass) and the issue scan must stop.
func (p *Pipeline) execute(e *robEntry, loadSlots, storeSlots *int) bool {
	if DebugTrace {
		defer p.traceExec(e)
	}
	p.iqCount-- // e leaves the issue queue (always sDispatched on entry)
	e.state = sIssued
	e.granted = true
	e.issueAt = p.cycle
	in := e.inst
	// Granted until scheduleMem finds port slots still to drain.
	p.inflight = append(p.inflight, e)
	if e.is(clStore) {
		p.stores = removeEntry(p.stores, e)
	}
	if in.Op == isa.OpSRVEnd {
		p.endIssued = e
	}
	lat := int64(p.Cfg.ScalarLat)

	switch in.Op {
	case isa.OpNop, isa.OpHalt:
	case isa.OpMovI:
		e.sclRes = in.Imm
	case isa.OpMov:
		e.sclRes = p.readScalar(e, in.Rs1)
	case isa.OpAdd:
		e.sclRes = p.readScalar(e, in.Rs1) + p.readScalar(e, in.Rs2)
		if in.FP {
			lat = int64(p.Cfg.VecFPLat)
		}
	case isa.OpAddI:
		e.sclRes = p.readScalar(e, in.Rs1) + in.Imm
	case isa.OpSub:
		e.sclRes = p.readScalar(e, in.Rs1) - p.readScalar(e, in.Rs2)
		if in.FP {
			lat = int64(p.Cfg.VecFPLat)
		}
	case isa.OpMul:
		e.sclRes = p.readScalar(e, in.Rs1) * p.readScalar(e, in.Rs2)
		lat = int64(p.Cfg.VecMulLat)
		if in.FP {
			lat = int64(p.Cfg.VecFPLat)
		}
	case isa.OpAnd:
		e.sclRes = p.readScalar(e, in.Rs1) & p.readScalar(e, in.Rs2)
	case isa.OpOr:
		e.sclRes = p.readScalar(e, in.Rs1) | p.readScalar(e, in.Rs2)
	case isa.OpXor:
		e.sclRes = p.readScalar(e, in.Rs1) ^ p.readScalar(e, in.Rs2)
	case isa.OpShlI:
		e.sclRes = p.readScalar(e, in.Rs1) << uint(in.Imm)
	case isa.OpShrI:
		e.sclRes = int64(uint64(p.readScalar(e, in.Rs1)) >> uint(in.Imm))

	case isa.OpJmp:
		// Direction and target are known at fetch; nothing to verify.

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		a, b := p.readScalar(e, in.Rs1), p.readScalar(e, in.Rs2)
		var taken bool
		switch in.Op {
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = a < b
		case isa.OpBGE:
			taken = a >= b
		}
		p.BP.Update(e.pc, e.predTaken, taken, in.Tgt)
		target := e.pc + 1
		if taken {
			target = in.Tgt
		}
		if taken != e.predTaken || (taken && e.predTarget != in.Tgt) {
			e.doneAt = p.cycle + lat
			p.squashAfter(e.seq)
			p.redirect(target)
			return true
		}

	case isa.OpSRVStart:
		if err := p.Ctrl.Start(e.pc+1, in.Dir); err != nil {
			panic(err) // the srv_start issue gate makes this unreachable
		}
		p.curInstance = e.regionIdx
		p.curStartSeq = e.seq
		p.regionStartCycle = p.cycle
		p.traceRegionStart()

	case isa.OpSRVEnd:
		e.doneAt = p.cycle + lat
		if p.Cfg.NoSelectiveReplay && p.Ctrl.Mode() == core.ModeSpeculative &&
			p.Ctrl.NeedsReplay().Any() {
			// Ablation: discard the speculative pass and re-execute the
			// whole region sequentially, as a core without selective
			// replay would have to.
			p.enterFallback(e.pc)
			return true
		}
		// Close the pass clock before the controller decides: replay and
		// fallback passes charge their cycles to the instruction whose
		// mark caused them.
		p.profClosePass()
		switch p.Ctrl.End() {
		case core.EndCommit:
			p.LSU.CommitRegion(e.regionIdx)
			p.curInstance = -1
			p.regionHist.Observe(p.cycle - p.regionStartCycle)
			p.profEndCommit()
			p.traceRegionPass("commit", 0)
			p.traceRegionEnd(e.regionIdx)
		case core.EndReplay:
			p.profReplayRound()
			p.traceRegionPass("replay", p.Ctrl.Replay().Count())
			p.squashAfter(e.seq)
			p.dispRegionCounter = e.regionIdx
			p.dispInRegion = true
			p.redirect(p.Ctrl.StartPC())
			return true
		case core.EndNextLane:
			p.traceRegionPass("fallback-lane", 1)
			p.squashAfter(e.seq)
			p.dispRegionCounter = e.regionIdx
			p.dispInRegion = true
			p.redirect(p.Ctrl.StartPC())
			return true
		}

	default:
		if in.IsVector() {
			return p.executeVector(e, loadSlots, storeSlots)
		}
		if in.IsMem() {
			return p.executeScalarMem(e, loadSlots, storeSlots)
		}
		panic(fmt.Sprintf("pipeline: unhandled op %v", in.Op))
	}
	e.doneAt = p.cycle + lat
	return false
}

// faultCheck tests one element access against the injected fault set. It
// returns false when the access must be suppressed this round: either the
// fault was raised precisely (oldest active lane, §III-D3) or it was
// deferred by marking the lane and all younger ones for re-execution.
func (p *Pipeline) faultCheck(e *robEntry, addr uint64, lane int) bool {
	if p.FaultAddrs == nil || !p.FaultAddrs[addr] {
		return true
	}
	if p.Ctrl.MarkExceptionLanes(lane) {
		p.raiseFault(e, addr)
	} else {
		p.Stats.DeferredFaults++
		p.profExcMark(e.pc, lane)
	}
	return false
}

// executeScalarMem handles scalar loads and stores through the LSU. It
// returns true when a memory-order misspeculation squashed the pipeline and
// the issue scan must stop.
func (p *Pipeline) executeScalarMem(e *robEntry, loadSlots, storeSlots *int) bool {
	in := e.inst
	addr := uint64(p.readScalar(e, in.Rs1)) + uint64(in.Imm)
	le := e.lsuEntries[0]
	if in.Op == isa.OpLoad {
		if !p.faultCheck(e, addr, 0) {
			p.scheduleMem(e, 1, 1, loadSlots)
			return false
		}
		res := p.LSU.ExecLoad(le, core.KindScalar, addr, in.Elem, isa.DirUp, allLanes, allLanes, e.seq)
		e.sclRes = res.Vals[0]
		p.scheduleMem(e, 1, p.memLatency(res.MemAddrs), loadSlots)
		return false
	}
	var vals isa.Vec
	vals[0] = p.readScalar(e, in.Rs2)
	res := p.LSU.ExecStore(le, core.KindScalar, addr, in.Elem, isa.DirUp, allLanes, allLanes, vals, e.seq)
	p.scheduleMem(e, 1, 1, storeSlots)
	return p.verticalSquash(e, res)
}

// verticalSquash recovers from a memory-order misspeculation: the violating
// load and everything younger re-fetches, and the (load, store) pair joins a
// common store set so the next encounter serialises (Chrysos & Emer).
func (p *Pipeline) verticalSquash(st *robEntry, res lsu.StoreResult) bool {
	if res.SquashSeq < 0 {
		return false
	}
	p.Stats.VerticalSquashes++
	p.SS.Assign(res.SquashPC, st.pc)
	if p.Ctrl.InRegion() && p.curStartSeq > res.SquashSeq {
		// srv_start does not wait for older stores, so the squash can doom
		// the srv_start that opened the current region: the surviving path
		// has not entered it, and the re-fetched srv_start opens it again.
		p.Ctrl.Abort()
		p.curInstance = -1
	}
	p.squashAfter(res.SquashSeq - 1)
	p.redirect(res.SquashPC)
	return true
}

// executeVector handles every vector-class operation.
func (p *Pipeline) executeVector(e *robEntry, loadSlots, storeSlots *int) bool {
	in := e.inst
	update, act := p.masks(e)
	lat := int64(p.Cfg.VecIntLat)
	if in.FP {
		lat = int64(p.Cfg.VecFPLat)
	}

	mergeVec := func(f func(i int) int64) {
		old := p.oldVec(e)
		e.pay.vecRes = old
		for i := 0; i < isa.NumLanes; i++ {
			if act[i] {
				e.pay.vecRes[i] = f(i)
			}
		}
	}
	mergePred := func(f func(i int) bool) {
		old := p.oldPred(e)
		e.pay.predRes = old
		for i := 0; i < isa.NumLanes; i++ {
			if act[i] {
				e.pay.predRes[i] = f(i)
			}
		}
	}

	switch in.Op {
	case isa.OpVMov:
		v := p.readVec(e, in.Rs1)
		mergeVec(func(i int) int64 { return v[i] })
	case isa.OpVAdd:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] + b[i] })
	case isa.OpVSub:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] - b[i] })
	case isa.OpVMul:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] * b[i] })
		if !in.FP {
			lat = int64(p.Cfg.VecMulLat)
		}
	case isa.OpVMulAdd:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		old := p.oldVec(e)
		mergeVec(func(i int) int64 { return a[i]*b[i] + old[i] })
		if !in.FP {
			lat = int64(p.Cfg.VecMulLat)
		}
	case isa.OpVAddI:
		a := p.readVec(e, in.Rs1)
		mergeVec(func(i int) int64 { return a[i] + in.Imm })
	case isa.OpVMulI:
		a := p.readVec(e, in.Rs1)
		mergeVec(func(i int) int64 { return a[i] * in.Imm })
		if !in.FP {
			lat = int64(p.Cfg.VecMulLat)
		}
	case isa.OpVAnd:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] & b[i] })
	case isa.OpVXor:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] ^ b[i] })
	case isa.OpVShrI:
		a := p.readVec(e, in.Rs1)
		mergeVec(func(i int) int64 { return int64(uint64(a[i]) >> uint(in.Imm)) })
	case isa.OpVAndI:
		a := p.readVec(e, in.Rs1)
		mergeVec(func(i int) int64 { return a[i] & in.Imm })
	case isa.OpVAddS:
		a, s := p.readVec(e, in.Rs1), p.readScalar(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] + s })
	case isa.OpVMulS:
		a, s := p.readVec(e, in.Rs1), p.readScalar(e, in.Rs2)
		mergeVec(func(i int) int64 { return a[i] * s })
		if !in.FP {
			lat = int64(p.Cfg.VecMulLat)
		}
	case isa.OpVSplat:
		s := p.readScalar(e, in.Rs1)
		mergeVec(func(int) int64 { return s })
	case isa.OpVIota:
		s := p.readScalar(e, in.Rs1)
		mergeVec(func(i int) int64 { return s + int64(i) })
	case isa.OpVIotaRev:
		s := p.readScalar(e, in.Rs1)
		mergeVec(func(i int) int64 { return s + int64(isa.NumLanes-1-i) })
	case isa.OpVSel:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		sel := allLanes
		if in.Pg != isa.NoPred {
			sel = p.readPred(e, in.Pg)
		}
		old := p.oldVec(e)
		e.pay.vecRes = old
		for i := 0; i < isa.NumLanes; i++ {
			if update[i] {
				if sel[i] {
					e.pay.vecRes[i] = a[i]
				} else {
					e.pay.vecRes[i] = b[i]
				}
			}
		}
	case isa.OpVCmpLT:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] < b[i] })
	case isa.OpVCmpGE:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] >= b[i] })
	case isa.OpVCmpEQ:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] == b[i] })
	case isa.OpVCmpNE:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] != b[i] })
	case isa.OpPTrue:
		mergePred(func(int) bool { return true })
	case isa.OpPFalse:
		mergePred(func(int) bool { return false })
	case isa.OpPAnd:
		a, b := p.readPred(e, in.Rs1), p.readPred(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] && b[i] })
	case isa.OpPOr:
		a, b := p.readPred(e, in.Rs1), p.readPred(e, in.Rs2)
		mergePred(func(i int) bool { return a[i] || b[i] })
	case isa.OpPNot:
		a := p.readPred(e, in.Rs1)
		mergePred(func(i int) bool { return !a[i] })
	case isa.OpVConflict:
		a, b := p.readVec(e, in.Rs1), p.readVec(e, in.Rs2)
		mergePred(func(i int) bool {
			for j := 0; j < i; j++ {
				if act[j] && a[i] == b[j] {
					return true
				}
			}
			return false
		})
		lat = int64(p.Cfg.VecFPLat) // multi-cycle comparison tree
	case isa.OpVLoad, isa.OpVBcast, isa.OpVGather:
		p.executeVecLoad(e, update, act, loadSlots)
		return false
	case isa.OpVStore, isa.OpVScatter:
		return p.executeVecStore(e, update, act, storeSlots)
	default:
		panic(fmt.Sprintf("pipeline: unhandled vector op %v", in.Op))
	}
	e.doneAt = p.cycle + lat
	return false
}

func (p *Pipeline) executeVecLoad(e *robEntry, update, act isa.Pred, loadSlots *int) {
	in := e.inst
	base := uint64(p.readScalar(e, in.Rs1)) + uint64(in.Imm)
	old := p.oldVec(e)
	e.pay.vecRes = old
	dir := p.regionDir(e)

	var memAddrs []uint64
	switch in.Op {
	case isa.OpVLoad:
		if p.FaultAddrs != nil {
			for lane := 0; lane < isa.NumLanes; lane++ {
				off := lane
				if dir == isa.DirDown {
					off = isa.NumLanes - 1 - lane
				}
				la := base + uint64(off*in.Elem)
				if act[lane] && !p.faultCheck(e, la, lane) {
					act[lane] = false
				}
			}
		}
		res := p.LSU.ExecLoad(e.lsuEntries[0], core.KindContig, base, in.Elem, dir, update, act, e.seq)
		p.mergeLoad(e, res.Vals, act)
		memAddrs = res.MemAddrs
		p.scheduleMem(e, 1, p.memLatency(memAddrs), loadSlots)
	case isa.OpVBcast:
		res := p.LSU.ExecLoad(e.lsuEntries[0], core.KindBcast, base, in.Elem, dir, update, act, e.seq)
		p.mergeLoad(e, res.Vals, act)
		memAddrs = res.MemAddrs
		p.scheduleMem(e, 1, p.memLatency(memAddrs), loadSlots)
	case isa.OpVGather:
		idx := p.readVec(e, in.Rs2)
		if len(e.lsuEntries) == 1 {
			// Sequential fallback: a single lane executes this pass.
			lane := update.Oldest()
			addr := base + uint64(idx[lane]*int64(in.Elem))
			var laneAct, laneUpd isa.Pred
			laneAct[lane], laneUpd[lane] = act[lane], true
			le := e.lsuEntries[0]
			p.LSU.SetLane(le, lane)
			res := p.LSU.ExecLoad(le, core.KindElem, addr, in.Elem, dir, laneUpd, laneAct, e.seq)
			if act[lane] {
				e.pay.vecRes[lane] = res.Vals[lane]
			}
			p.scheduleMem(e, 1, p.memLatency(res.MemAddrs), loadSlots)
			return
		}
		elems := 0
		memAddrs = p.gatherAddrs[:0]
		for lane := 0; lane < isa.NumLanes; lane++ {
			le := e.lsuEntries[lane]
			if !update[lane] && le.Valid {
				continue // untouched lane keeps its entry
			}
			elems++
			addr := base + uint64(idx[lane]*int64(in.Elem))
			var laneAct isa.Pred
			laneAct[lane] = act[lane]
			var laneUpd isa.Pred
			laneUpd[lane] = update[lane]
			if laneAct[lane] && !p.faultCheck(e, addr, lane) {
				laneAct[lane] = false
			}
			res := p.LSU.ExecLoad(le, core.KindElem, addr, in.Elem, dir, laneUpd, laneAct, e.seq)
			if act[lane] {
				e.pay.vecRes[lane] = res.Vals[lane]
			}
			memAddrs = append(memAddrs, res.MemAddrs...)
		}
		p.gatherAddrs = memAddrs[:0]
		if elems == 0 {
			elems = 1
		}
		p.scheduleMem(e, elems, p.memLatency(memAddrs), loadSlots)
	}
}

func (p *Pipeline) mergeLoad(e *robEntry, vals isa.Vec, act isa.Pred) {
	for i := 0; i < isa.NumLanes; i++ {
		if act[i] {
			e.pay.vecRes[i] = vals[i]
		}
	}
}

// executeVecStore returns true when a vertical misspeculation squash
// redirected the front end (issue scan must stop).
func (p *Pipeline) executeVecStore(e *robEntry, update, act isa.Pred, storeSlots *int) bool {
	in := e.inst
	base := uint64(p.readScalar(e, in.Rs1)) + uint64(in.Imm)
	dir := p.regionDir(e)
	switch in.Op {
	case isa.OpVStore:
		vals := p.readVec(e, in.Rs2)
		res := p.LSU.ExecStore(e.lsuEntries[0], core.KindContig, base, in.Elem, dir, update, act, vals, e.seq)
		p.scheduleMem(e, 1, 1, storeSlots)
		return p.verticalSquash(e, res)
	case isa.OpVScatter:
		idx := p.readVec(e, in.Rs2)
		vals := p.readVec(e, in.Rs3)
		if len(e.lsuEntries) == 1 {
			lane := update.Oldest()
			addr := base + uint64(idx[lane]*int64(in.Elem))
			var laneAct, laneUpd isa.Pred
			laneAct[lane], laneUpd[lane] = act[lane], true
			le := e.lsuEntries[0]
			p.LSU.SetLane(le, lane)
			res := p.LSU.ExecStore(le, core.KindElem, addr, in.Elem, dir, laneUpd, laneAct, vals, e.seq)
			p.scheduleMem(e, 1, 1, storeSlots)
			return p.verticalSquash(e, res)
		}
		elems := 0
		for lane := 0; lane < isa.NumLanes; lane++ {
			le := e.lsuEntries[lane]
			if !update[lane] && le.Valid {
				continue
			}
			elems++
			addr := base + uint64(idx[lane]*int64(in.Elem))
			var laneAct, laneUpd isa.Pred
			laneAct[lane] = act[lane]
			laneUpd[lane] = update[lane]
			if laneAct[lane] && !p.faultCheck(e, addr, lane) {
				laneAct[lane] = false
			}
			p.LSU.ExecStore(le, core.KindElem, addr, in.Elem, dir, laneUpd, laneAct, vals, e.seq)
		}
		if elems == 0 {
			elems = 1
		}
		p.scheduleMem(e, elems, 1, storeSlots)
	}
	return false
}

// regionDir returns the lane/address direction for the entry's region.
func (p *Pipeline) regionDir(e *robEntry) isa.Direction {
	if e.regionIdx >= 0 && p.Ctrl.InRegion() {
		return p.Ctrl.Dir()
	}
	return isa.DirUp
}

// scheduleMem assigns the port occupancy and completion time of a memory
// instruction: elems port slots must drain (gathers: one per lane), then the
// worst-case cache latency applies.
func (p *Pipeline) scheduleMem(e *robEntry, elems, cacheLat int, slots *int) {
	e.cacheLat = cacheLat
	e.memElems = elems
	e.granted = false
	for e.memElems > 0 && *slots > 0 {
		e.memElems--
		*slots--
	}
	if e.memElems == 0 {
		e.granted = true
		e.doneAt = p.cycle + int64(cacheLat)
		return
	}
	// Element accesses remain: e moves from the in-flight list, where
	// execute put it last, to the drain list.
	p.inflight = p.inflight[:len(p.inflight)-1]
	p.drain = insertBySeq(p.drain, e)
}

// memLatency charges the cache hierarchy for the distinct lines of the
// memory-sourced bytes and returns the worst latency (1 cycle AGU + access).
func (p *Pipeline) memLatency(addrs []uint64) int {
	if len(addrs) == 0 {
		return 2 // fully forwarded: AGU + SDQ read
	}
	// Dedup into a reusable scratch slice: accesses touch at most a handful
	// of distinct lines, so a linear scan beats a per-call map.
	lines := p.lineScratch[:0]
	worst := 0
	for _, a := range addrs {
		line := a &^ (uint64(bitvec.RegionSize) - 1)
		dup := false
		for _, l := range lines {
			if l == line {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		lines = append(lines, line)
		if lat := p.Hier.LatencyAt(p.cycle, line); lat > worst {
			worst = lat
		}
	}
	p.lineScratch = lines[:0]
	return 1 + worst
}
