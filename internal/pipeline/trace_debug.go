package pipeline

import "fmt"

// DebugTrace, when set, prints one line per executed instruction (cycle,
// seq, pc, op, scalar result). srvsim -trace sets it.
var DebugTrace bool

func (p *Pipeline) traceExec(e *robEntry) {
	fmt.Printf("cyc=%-6d seq=%-5d pc=%-3d %-10s scl=%d\n", p.cycle, e.seq, e.pc, e.inst.Op, e.sclRes)
}
