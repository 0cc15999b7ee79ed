package pipeline

import (
	"slices"

	"srvsim/internal/isa"
)

// Wakeup/select scheduling. An entry counts, at dispatch, the operands whose
// producer is still in flight and links each such operand onto its
// producer's wake chain; when the producer completes, complete() walks the
// chain and decrements the counts, moving a consumer whose last non-merge
// operand arrived onto the ready list. Issue then selects among ready
// entries only, as a hardware issue queue does, so a cycle costs in
// proportion to the entries that change state, not to window occupancy.
//
// The counts are exact. A producer becomes done only in complete(), which
// walks its chain at that moment; a consumer dispatched later sees it done
// and does not link. A consumer is always younger than its producers, so a
// squash that removes a producer removes its consumers too, and seqs are
// never reused (nextSeq never rolls back). The
// one chain repair a squash needs is for doomed consumers of surviving
// producers: a chain runs youngest-first, so the doomed links form its head,
// and squashAfter unlinks them youngest-first (unlinkSrcs).

// addSrc captures operand ri of e at dispatch, linking it onto its
// producer's wake chain while the producer is in flight.
func (p *Pipeline) addSrc(e *robEntry, ri int, mergeOnly bool) {
	slot := e.nsrc
	s := &e.pay.srcBuf[slot]
	*s = src{ri: uint8(ri), mergeOnly: mergeOnly}
	e.nsrc++
	prod := p.rename[ri] // live and uncommitted (rename holds no others)
	if prod == nil {
		return
	}
	s.prod, s.prodSeq = prod, prod.seq
	if prod.state == sDone {
		return
	}
	s.next, s.nextSlot = prod.wakeHead, prod.wakeSlot
	prod.wakeHead, prod.wakeSlot = e, slot
	if mergeOnly {
		e.mergePending++
	} else {
		e.pending++
	}
}

// linked reports whether operand s is on its producer's wake chain: the
// producer is live and has not completed.
func (p *Pipeline) linked(s *src) bool {
	return s.prod != nil && s.prodSeq > p.committedSeq && s.prod.state != sDone
}

// wake delivers a completed producer's result to the consumers on its wake
// chain.
func (p *Pipeline) wake(prod *robEntry) {
	c, slot := prod.wakeHead, prod.wakeSlot
	prod.wakeHead = nil
	for c != nil {
		s := &c.pay.srcBuf[slot]
		if s.mergeOnly {
			c.mergePending--
		} else if c.pending--; c.pending == 0 && c.state == sDispatched && c.inst.Op != isa.OpSRVEnd {
			p.readyList = insertBySeq(p.readyList, c)
		}
		c, slot = s.next, s.nextSlot
	}
}

// unlinkSrcs removes a doomed entry's operands from the wake chains of
// producers that survive a squash of everything younger than after. The
// caller visits doomed entries youngest-first, so each linked operand, last
// slot first, is at the head of its producer's chain.
func (p *Pipeline) unlinkSrcs(e *robEntry, after int64) {
	srcs := e.srcs()
	for i := len(srcs) - 1; i >= 0; i-- {
		s := &srcs[i]
		if s.prodSeq <= after && p.linked(s) {
			s.prod.wakeHead, s.prod.wakeSlot = s.next, s.nextSlot
		}
	}
}

// insertBySeq inserts e into a seq-ordered list. Entries reach the lists
// roughly in age order, so the search runs from the young end.
func insertBySeq(list []*robEntry, e *robEntry) []*robEntry {
	list = append(list, e)
	i := len(list) - 1
	for i > 0 && list[i-1].seq > e.seq {
		list[i] = list[i-1]
		i--
	}
	list[i] = e
	return list
}

// pruneReady drops the entries issue moved out of the dispatched state.
func (p *Pipeline) pruneReady() {
	n := 0
	for i, e := range p.readyList {
		if e.state == sDispatched {
			if n != i {
				p.readyList[n] = e
			}
			n++
		}
	}
	clear(p.readyList[n:])
	p.readyList = p.readyList[:n]
}

// dropYounger removes every entry younger than after from the scheduler
// lists (squash).
func (p *Pipeline) dropYounger(after int64) {
	p.readyList = truncateAfter(p.readyList, after)
	p.drain = truncateAfter(p.drain, after)
	p.stores = truncateAfter(p.stores, after)
	n := 0
	for i, e := range p.inflight {
		if e.seq <= after {
			if n != i {
				p.inflight[n] = e
			}
			n++
		}
	}
	clear(p.inflight[n:])
	p.inflight = p.inflight[:n]
	if p.endIssued != nil && p.endIssued.seq > after {
		p.endIssued = nil
	}
}

// truncateAfter cuts a seq-ordered list before its first entry younger than
// after.
func truncateAfter(list []*robEntry, after int64) []*robEntry {
	cut := len(list)
	for cut > 0 && list[cut-1].seq > after {
		cut--
	}
	clear(list[cut:])
	return list[:cut]
}

// removeEntry deletes e from a list, keeping the order of the rest.
func removeEntry(list []*robEntry, e *robEntry) []*robEntry {
	if i := slices.Index(list, e); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	return list
}

// relinkScheduler rebuilds the operand counts, the wake chains and the
// scheduler lists and the issue-queue count from a restored ROB window whose
// producer links are set. Walking the window oldest-first and linking at
// each chain's head gives the youngest-first chains dispatch builds.
func (p *Pipeline) relinkScheduler() {
	p.iqCount = 0
	for _, e := range p.robWin() {
		srcs := e.srcs()
		for i := range srcs {
			s := &srcs[i]
			if !p.linked(s) {
				continue
			}
			s.next, s.nextSlot = s.prod.wakeHead, s.prod.wakeSlot
			s.prod.wakeHead, s.prod.wakeSlot = e, uint8(i)
			if s.mergeOnly {
				e.mergePending++
			} else {
				e.pending++
			}
		}
		switch e.state {
		case sDispatched:
			p.iqCount++
			if e.pending == 0 || e.inst.Op == isa.OpSRVEnd {
				p.readyList = append(p.readyList, e)
			}
			if e.is(clStore) {
				p.stores = append(p.stores, e)
			}
		case sIssued:
			if e.granted {
				p.inflight = append(p.inflight, e)
			} else {
				p.drain = append(p.drain, e)
			}
			if e.inst.Op == isa.OpSRVEnd {
				p.endIssued = e
			}
		}
	}
}
