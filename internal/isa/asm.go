package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a textual assembly format with a parser
// (Assemble) and a canonical printer (Disassemble) that round-trip:
// Assemble(Disassemble(p)) reproduces p exactly.
//
// Syntax, one instruction per line ("; ..." comments, "name:" labels):
//
//	movi s0, 42
//	addi s0, s0, 16
//	blt s0, s1, loop
//	v_add v2, v0, v1 ?p3        ; governing predicate p3
//	f.v_mul v2, v0, v1          ; FP-class op
//	load s5, [s2+8], 4          ; elem size as the last operand
//	v_load v0, [s2+0], 4
//	v_gather v0, [s2+v1*4+0]
//	v_scatter [s2+v1*4+0], v0
//	srv_start up                ; or "down"
//	srv_end

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// operand kinds per opcode, used by both printer and parser.
type operandForm int

const (
	formNone     operandForm = iota // nop, halt, srv_end
	formSRVStart                    // srv_start up|down
	formRdImm                       // movi s0, 42
	formRdRs                        // mov s0, s1
	formRdRsRs                      // add s0, s1, s2
	formRdRsImm                     // addi s0, s1, 16 / shifts
	formBranch                      // beq s1, s2, label
	formJmp                         // jmp label
	formLoad                        // load s0, [s1+imm], elem
	formStore                       // store [s1+imm], s2, elem
	formVLoad                       // v_load v0, [s1+imm], elem
	formVStore                      // v_store [s1+imm], v2, elem
	formGather                      // v_gather v0, [s1+v2*elem+imm]
	formScatter                     // v_scatter [s1+v2*elem+imm], v3
	formVBcast                      // v_bcast v0, [s1+imm], elem
	formVRdVs                       // v_mov v0, v1
	formVRdVsVs                     // v_add v0, v1, v2
	formVRdVsImm                    // v_addi v0, v1, 2
	formVRdVsRs                     // v_adds v0, v1, s2
	formVRdRs                       // v_splat v0, s1
	formPRd                         // p_true p0
	formPRdPs                       // p_not p0, p1
	formPRdPsPs                     // p_and p0, p1, p2
	formPRdVsVs                     // v_cmplt p0, v1, v2 / v_conflict
)

var opForm = map[Op]operandForm{
	OpNop: formNone, OpHalt: formNone, OpSRVEnd: formNone,
	OpSRVStart: formSRVStart,
	OpMovI:     formRdImm,
	OpMov:      formRdRs,
	OpAdd:      formRdRsRs, OpSub: formRdRsRs, OpMul: formRdRsRs,
	OpAnd: formRdRsRs, OpOr: formRdRsRs, OpXor: formRdRsRs,
	OpAddI: formRdRsImm, OpShlI: formRdRsImm, OpShrI: formRdRsImm,
	OpJmp: formJmp,
	OpBEQ: formBranch, OpBNE: formBranch, OpBLT: formBranch, OpBGE: formBranch,
	OpLoad: formLoad, OpStore: formStore,
	OpVLoad: formVLoad, OpVStore: formVStore,
	OpVGather: formGather, OpVScatter: formScatter, OpVBcast: formVBcast,
	OpVMov: formVRdVs,
	OpVAdd: formVRdVsVs, OpVSub: formVRdVsVs, OpVMul: formVRdVsVs,
	OpVMulAdd: formVRdVsVs, OpVAnd: formVRdVsVs, OpVXor: formVRdVsVs,
	OpVSel:  formVRdVsVs,
	OpVAddI: formVRdVsImm, OpVMulI: formVRdVsImm, OpVShrI: formVRdVsImm,
	OpVAndI: formVRdVsImm,
	OpVAddS: formVRdVsRs, OpVMulS: formVRdVsRs,
	OpVSplat: formVRdRs, OpVIota: formVRdRs, OpVIotaRev: formVRdRs,
	OpPTrue: formPRd, OpPFalse: formPRd,
	OpPNot: formPRdPs,
	OpPAnd: formPRdPsPs, OpPOr: formPRdPsPs,
	OpVCmpLT: formPRdVsVs, OpVCmpGE: formPRdVsVs, OpVCmpEQ: formPRdVsVs,
	OpVCmpNE: formPRdVsVs, OpVConflict: formPRdVsVs,
}

// Disassemble renders the program in the canonical assembly syntax.
func Disassemble(p *Program) string {
	// Invent labels for branch targets.
	targets := map[int]string{}
	for _, in := range p.Insts {
		if in.IsBranch() {
			if _, ok := targets[in.Tgt]; !ok {
				targets[in.Tgt] = fmt.Sprintf("L%d", in.Tgt)
			}
		}
	}
	var b strings.Builder
	for pc := range p.Insts {
		if l, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		in := &p.Insts[pc]
		b.WriteString("\t")
		if in.FP {
			b.WriteString("f.")
		}
		b.WriteString(in.Op.String())
		if body := asmOperands(in, targets); body != "" {
			b.WriteString(" ")
			b.WriteString(body)
		}
		if in.Pg != NoPred {
			fmt.Fprintf(&b, " ?p%d", in.Pg)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func asmOperands(in *Inst, targets map[int]string) string {
	memS := func() string { return fmt.Sprintf("[s%d%+d]", in.Rs1, in.Imm) }
	memG := func(idx int) string {
		return fmt.Sprintf("[s%d+v%d*%d%+d]", in.Rs1, idx, in.Elem, in.Imm)
	}
	switch opForm[in.Op] {
	case formNone:
		return ""
	case formSRVStart:
		return strings.ToLower(in.Dir.String())
	case formRdImm:
		return fmt.Sprintf("s%d, %d", in.Rd, in.Imm)
	case formRdRs:
		return fmt.Sprintf("s%d, s%d", in.Rd, in.Rs1)
	case formRdRsRs:
		return fmt.Sprintf("s%d, s%d, s%d", in.Rd, in.Rs1, in.Rs2)
	case formRdRsImm:
		return fmt.Sprintf("s%d, s%d, %d", in.Rd, in.Rs1, in.Imm)
	case formJmp:
		return targets[in.Tgt]
	case formBranch:
		return fmt.Sprintf("s%d, s%d, %s", in.Rs1, in.Rs2, targets[in.Tgt])
	case formLoad:
		return fmt.Sprintf("s%d, %s, %d", in.Rd, memS(), in.Elem)
	case formStore:
		return fmt.Sprintf("%s, s%d, %d", memS(), in.Rs2, in.Elem)
	case formVLoad, formVBcast:
		return fmt.Sprintf("v%d, %s, %d", in.Rd, memS(), in.Elem)
	case formVStore:
		return fmt.Sprintf("%s, v%d, %d", memS(), in.Rs2, in.Elem)
	case formGather:
		return fmt.Sprintf("v%d, %s", in.Rd, memG(in.Rs2))
	case formScatter:
		return fmt.Sprintf("%s, v%d", memG(in.Rs2), in.Rs3)
	case formVRdVs:
		return fmt.Sprintf("v%d, v%d", in.Rd, in.Rs1)
	case formVRdVsVs:
		return fmt.Sprintf("v%d, v%d, v%d", in.Rd, in.Rs1, in.Rs2)
	case formVRdVsImm:
		return fmt.Sprintf("v%d, v%d, %d", in.Rd, in.Rs1, in.Imm)
	case formVRdVsRs:
		return fmt.Sprintf("v%d, v%d, s%d", in.Rd, in.Rs1, in.Rs2)
	case formVRdRs:
		return fmt.Sprintf("v%d, s%d", in.Rd, in.Rs1)
	case formPRd:
		return fmt.Sprintf("p%d", in.Rd)
	case formPRdPs:
		return fmt.Sprintf("p%d, p%d", in.Rd, in.Rs1)
	case formPRdPsPs:
		return fmt.Sprintf("p%d, p%d, p%d", in.Rd, in.Rs1, in.Rs2)
	case formPRdVsVs:
		return fmt.Sprintf("p%d, v%d, v%d", in.Rd, in.Rs1, in.Rs2)
	}
	return ""
}

// DataInit is a memory initialisation parsed from a ".data" directive:
// consecutive Elem-sized values starting at Addr.
type DataInit struct {
	Addr   uint64
	Elem   int
	Values []int64
}

// Assemble parses the textual syntax into a Program.
func Assemble(src string) (*Program, error) {
	p, _, err := AssembleWithData(src)
	return p, err
}

// AssembleWithData additionally collects ".data addr, elem, v0, v1, ..."
// directives so a source file can carry its own memory image.
func AssembleWithData(src string) (*Program, []DataInit, error) {
	b := NewBuilder()
	var data []DataInit
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			b.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		if strings.HasPrefix(line, ".data") {
			di, err := parseData(strings.TrimSpace(line[5:]))
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
			data = append(data, di)
			continue
		}
		in, err := parseInst(line)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		b.Emit(in)
	}
	p, err := b.Build()
	return p, data, err
}

func parseData(s string) (DataInit, error) {
	var di DataInit
	parts := splitOperands(s)
	if len(parts) < 3 {
		return di, fmt.Errorf(".data needs addr, elem, values...")
	}
	addr, err := parseImm(parts[0])
	if err != nil {
		return di, fmt.Errorf(".data address: %w", err)
	}
	di.Addr = uint64(addr)
	if di.Elem, err = parseElem(parts[1]); err != nil {
		return di, fmt.Errorf(".data %w", err)
	}
	for _, v := range parts[2:] {
		x, err := parseImm(v)
		if err != nil {
			return di, err
		}
		di.Values = append(di.Values, x)
	}
	return di, nil
}

// MustAssemble panics on parse errors (tests and embedded programs).
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseInst(line string) (Inst, error) {
	in := Inst{Pg: NoPred}
	// Trailing predicate "?pN".
	if i := strings.LastIndex(line, "?p"); i >= 0 {
		pg, err := parseReg(strings.TrimSpace(line[i+1:]), 'p')
		if err != nil {
			return in, fmt.Errorf("bad predicate %q: %w", line[i:], err)
		}
		in.Pg = pg
		line = strings.TrimSpace(line[:i])
	}
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if strings.HasPrefix(mnem, "f.") {
		in.FP = true
		mnem = mnem[2:]
	}
	op, ok := nameToOp[mnem]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	in.Op = op
	ops := splitOperands(rest)
	return fillOperands(in, ops)
}

// splitOperands splits on commas outside brackets.
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseReg(s string, prefix byte) (int, error) {
	if len(s) < 2 || s[0] != prefix {
		return 0, fmt.Errorf("expected %c-register, got %q", prefix, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad register %q", s)
	}
	max := 0
	switch prefix {
	case 's':
		max = NumSclRegs
	case 'v':
		max = NumVecRegs
	case 'p':
		max = NumPredReg
	}
	if n < 0 || n >= max {
		return 0, fmt.Errorf("register %q out of range (0..%d)", s, max-1)
	}
	return n, nil
}

// parseElem parses a memory element size: 1, 2, 4 or 8 bytes, the sizes
// the LSU and the functional memory move.
func parseElem(s string) (int, error) {
	switch n, _ := strconv.Atoi(s); n {
	case 1, 2, 4, 8:
		return n, nil
	}
	return 0, fmt.Errorf("element size must be 1, 2, 4 or 8, got %q", s)
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMemS parses [sN+imm] / [sN-imm].
func parseMemS(s string) (rs int, imm int64, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("expected memory operand, got %q", s)
	}
	body := s[1 : len(s)-1]
	i := strings.IndexAny(body, "+-")
	if i < 1 {
		return 0, 0, fmt.Errorf("memory operand %q must be [sN+offset]", s)
	}
	rs, err = parseReg(body[:i], 's')
	if err != nil {
		return
	}
	imm, err = parseImm(body[i:])
	return
}

// parseMemG parses [sN+vM*elem+imm].
func parseMemG(s string) (rs, vidx, elem int, imm int64, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		err = fmt.Errorf("expected memory operand, got %q", s)
		return
	}
	parts := strings.SplitN(s[1:len(s)-1], "+", 2)
	if len(parts) != 2 {
		err = fmt.Errorf("gather operand %q needs base+index", s)
		return
	}
	rs, err = parseReg(parts[0], 's')
	if err != nil {
		return
	}
	body := parts[1]
	star := strings.IndexByte(body, '*')
	if star < 0 {
		err = fmt.Errorf("gather operand %q needs vN*elem", s)
		return
	}
	vidx, err = parseReg(body[:star], 'v')
	if err != nil {
		return
	}
	tail := body[star+1:]
	j := strings.IndexAny(tail, "+-")
	if j < 0 {
		err = fmt.Errorf("gather operand %q needs an offset", s)
		return
	}
	elem, err = parseElem(tail[:j])
	if err != nil {
		return
	}
	imm, err = parseImm(tail[j:])
	return
}

func fillOperands(in Inst, ops []string) (Inst, error) {
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%v expects %d operands, got %d", in.Op, n, len(ops))
		}
		return nil
	}
	var err error
	fail := func(e error) (Inst, error) { return in, e }
	switch opForm[in.Op] {
	case formNone:
		return in, need(0)
	case formSRVStart:
		if err = need(1); err != nil {
			return fail(err)
		}
		switch strings.ToLower(ops[0]) {
		case "up":
			in.Dir = DirUp
		case "down":
			in.Dir = DirDown
		default:
			return fail(fmt.Errorf("srv_start direction must be up or down, got %q", ops[0]))
		}
	case formRdImm:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Imm, err = parseImm(ops[1]); err != nil {
			return fail(err)
		}
	case formRdRs:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
	case formRdRsRs:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[2], 's'); err != nil {
			return fail(err)
		}
	case formRdRsImm:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
		if in.Imm, err = parseImm(ops[2]); err != nil {
			return fail(err)
		}
	case formJmp:
		if err = need(1); err != nil {
			return fail(err)
		}
		in.Lbl = ops[0]
	case formBranch:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
		in.Lbl = ops[2]
	case formLoad:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 's'); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Imm, err = parseMemS(ops[1]); err != nil {
			return fail(err)
		}
		if in.Elem, err = parseElem(ops[2]); err != nil {
			return fail(err)
		}
	case formStore:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Imm, err = parseMemS(ops[0]); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
		if in.Elem, err = parseElem(ops[2]); err != nil {
			return fail(err)
		}
	case formVLoad, formVBcast:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Imm, err = parseMemS(ops[1]); err != nil {
			return fail(err)
		}
		if in.Elem, err = parseElem(ops[2]); err != nil {
			return fail(err)
		}
	case formVStore:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Imm, err = parseMemS(ops[0]); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
		if in.Elem, err = parseElem(ops[2]); err != nil {
			return fail(err)
		}
	case formGather:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Rs2, in.Elem, in.Imm, err = parseMemG(ops[1]); err != nil {
			return fail(err)
		}
	case formScatter:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rs1, in.Rs2, in.Elem, in.Imm, err = parseMemG(ops[0]); err != nil {
			return fail(err)
		}
		if in.Rs3, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
	case formVRdVs:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
	case formVRdVsVs:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[2], 'v'); err != nil {
			return fail(err)
		}
	case formVRdVsImm:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
		if in.Imm, err = parseImm(ops[2]); err != nil {
			return fail(err)
		}
	case formVRdVsRs:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[2], 's'); err != nil {
			return fail(err)
		}
	case formVRdRs:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 's'); err != nil {
			return fail(err)
		}
	case formPRd:
		if err = need(1); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'p'); err != nil {
			return fail(err)
		}
	case formPRdPs:
		if err = need(2); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'p'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'p'); err != nil {
			return fail(err)
		}
	case formPRdPsPs:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'p'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'p'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[2], 'p'); err != nil {
			return fail(err)
		}
	case formPRdVsVs:
		if err = need(3); err != nil {
			return fail(err)
		}
		if in.Rd, err = parseReg(ops[0], 'p'); err != nil {
			return fail(err)
		}
		if in.Rs1, err = parseReg(ops[1], 'v'); err != nil {
			return fail(err)
		}
		if in.Rs2, err = parseReg(ops[2], 'v'); err != nil {
			return fail(err)
		}
	}
	return in, nil
}
