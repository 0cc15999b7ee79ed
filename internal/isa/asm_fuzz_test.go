package isa

import (
	"math/rand"
	"testing"
)

// randInst builds a random well-formed instruction of a random form.
func randInst(rng *rand.Rand) Inst {
	elems := []int{1, 2, 4, 8}
	forms := []Op{
		OpNop, OpHalt, OpMovI, OpMov, OpAdd, OpAddI, OpSub, OpMul, OpAnd,
		OpOr, OpXor, OpShlI, OpShrI, OpLoad, OpStore,
		OpVMov, OpVAdd, OpVSub, OpVMul, OpVMulAdd, OpVAddI, OpVMulI, OpVAnd,
		OpVXor, OpVShrI, OpVAndI, OpVAddS, OpVMulS, OpVSplat, OpVIota,
		OpVIotaRev, OpVSel, OpVCmpLT, OpVCmpGE, OpVCmpEQ, OpVCmpNE,
		OpPTrue, OpPFalse, OpPAnd, OpPOr, OpPNot,
		OpVLoad, OpVStore, OpVGather, OpVScatter, OpVBcast, OpVConflict,
		OpSRVStart,
	}
	in := Inst{
		Op:   forms[rng.Intn(len(forms))],
		Rd:   rng.Intn(16),
		Rs1:  rng.Intn(16),
		Rs2:  rng.Intn(16),
		Rs3:  rng.Intn(16),
		Pg:   NoPred,
		Elem: elems[rng.Intn(len(elems))],
		Imm:  int64(rng.Intn(512) - 128),
	}
	if rng.Intn(3) == 0 && in.IsVector() {
		in.Pg = rng.Intn(NumPredReg)
	}
	if rng.Intn(4) == 0 && in.IsVector() {
		in.FP = true
	}
	if in.Op == OpSRVStart && rng.Intn(2) == 0 {
		in.Dir = DirDown
	}
	// Normalise fields the form does not carry, so equality after the
	// round-trip is exact.
	switch opForm[in.Op] {
	case formNone, formSRVStart:
		in.Rd, in.Rs1, in.Rs2, in.Rs3, in.Imm, in.Elem, in.Pg = 0, 0, 0, 0, 0, 0, NoPred
		if in.Op != OpSRVStart {
			in.Dir = DirUp
		}
		in.FP = false
	case formRdImm:
		in.Rs1, in.Rs2, in.Rs3, in.Elem = 0, 0, 0, 0
		in.FP, in.Pg, in.Dir = false, NoPred, DirUp
	case formRdRs, formVRdRs, formPRdPs, formVRdVs:
		in.Rs2, in.Rs3, in.Imm, in.Elem = 0, 0, 0, 0
		in.Dir = DirUp
		if !in.IsVector() {
			in.FP, in.Pg = false, NoPred
		}
		if in.Op == OpVSplat || in.Op == OpVIota || in.Op == OpVIotaRev {
			in.Pg = NoPred
		}
	case formRdRsRs:
		in.Rs3, in.Imm, in.Elem = 0, 0, 0
		in.FP, in.Pg, in.Dir = false, NoPred, DirUp
	case formRdRsImm, formVRdVsImm:
		in.Rs2, in.Rs3, in.Elem = 0, 0, 0
		in.Dir = DirUp
		if !in.IsVector() {
			in.FP, in.Pg = false, NoPred
		}
	case formVRdVsVs, formPRdVsVs, formPRdPsPs, formVRdVsRs:
		in.Rs3, in.Imm, in.Elem = 0, 0, 0
		in.Dir = DirUp
	case formPRd:
		in.Rs1, in.Rs2, in.Rs3, in.Imm, in.Elem = 0, 0, 0, 0, 0
		in.Dir = DirUp
		in.Pg = NoPred
	case formLoad, formVLoad, formVBcast:
		in.Rs2, in.Rs3 = 0, 0
		in.Dir = DirUp
		if !in.IsVector() {
			in.FP, in.Pg = false, NoPred
		}
	case formStore, formVStore:
		in.Rd, in.Rs3 = 0, 0
		in.Dir = DirUp
		if !in.IsVector() {
			in.FP, in.Pg = false, NoPred
		}
	case formGather:
		in.Rs3 = 0
		in.Dir = DirUp
	case formScatter:
		in.Rd = 0
		in.Dir = DirUp
	}
	return in
}

// TestAsmFuzzRoundTrip: Disassemble->Assemble reproduces random programs
// instruction for instruction.
func TestAsmFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			b.Emit(randInst(rng))
		}
		b.Halt()
		p := b.MustBuild()
		text := Disassemble(p)
		q, err := Assemble(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if q.Len() != p.Len() {
			t.Fatalf("trial %d: length %d -> %d", trial, p.Len(), q.Len())
		}
		for i := 0; i < p.Len(); i++ {
			a, c := *p.At(i), *q.At(i)
			a.Lbl, c.Lbl = "", ""
			if a != c {
				t.Fatalf("trial %d inst %d:\n  orig %+v\n  got  %+v\n  text: %s",
					trial, i, a, c, asmLineOf(text, i))
			}
		}
	}
}

func asmLineOf(text string, i int) string {
	lines := []string{}
	for _, l := range splitLines(text) {
		if len(l) > 0 && l[len(l)-1] != ':' {
			lines = append(lines, l)
		}
	}
	if i < len(lines) {
		return lines[i]
	}
	return "?"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// FuzzAssemble feeds arbitrary source to the assembler. It must never
// panic, and every program it accepts must carry only operands the core can
// run: element sizes of 1, 2, 4 or 8 bytes on memory instructions and .data
// directives, and guards that name a predicate register. Running the
// accepted programs is out of scope here.
func FuzzAssemble(f *testing.F) {
	validElem := func(n int) bool { return n == 1 || n == 2 || n == 4 || n == 8 }
	f.Fuzz(func(t *testing.T, src string) {
		p, data, err := AssembleWithData(src)
		if err != nil {
			return
		}
		for pc := range p.Insts {
			in := &p.Insts[pc]
			if in.IsMem() && !validElem(in.Elem) {
				t.Errorf("inst %d (%v) accepted with element size %d", pc, in.Op, in.Elem)
			}
			if in.Pg != NoPred && (in.Pg < 0 || in.Pg >= NumPredReg) {
				t.Errorf("inst %d (%v) accepted with guard p%d", pc, in.Op, in.Pg)
			}
		}
		for _, d := range data {
			if !validElem(d.Elem) {
				t.Errorf(".data at %#x accepted with element size %d", d.Addr, d.Elem)
			}
		}
	})
}
