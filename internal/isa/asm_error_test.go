package isa

import (
	"strings"
	"testing"

	"srvsim/internal/mem"
)

// TestAssembleRejects covers the assembler's diagnostic paths: each source
// must fail with a message mentioning the offending construct.
func TestAssembleRejects(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "\tfrobnicate s0, s1", "mnemonic"},
		{"bad operand count", "\taddi s0, s1", "operand"},
		{"bad register class", "\taddi v0, s1, 2", "register"},
		{"register out of range", "\tmovi s99, 1", "register"},
		{"undefined label", "\tjmp nowhere\n\thalt", "label"},
		{"duplicate label", "x:\n\tnop\nx:\n\thalt", "label"},
		{"srv_start bad direction", "\tsrv_start sideways", "direction"},
		{"bad immediate", "\tmovi s0, notanumber", "immediate"},
		{"bad data directive", ".data zzz, 4, 1", "data"},
		{"bad data element size", ".data 0x100, 3, 1", "data"},
		// Operands the parser used to panic on, or accepted and left the
		// pipeline to panic on; each error names its line.
		{"empty memory operand", "\tv_load v1, [], 4", "line 1: memory operand"},
		{"load element size 16", "\tnop\n\tload s2, [s1+0], 16", "line 2: element size"},
		{"store element size 0", "\tstore [s1+0], s1, 0", "line 1: element size"},
		{"v_load element size 9", "\tv_load v1, [s1+0], 9", "line 1: element size"},
		{"v_store element size 3", "\tv_store [s1+0], v1, 3", "line 1: element size"},
		{"v_bcast element size 16", "\tv_bcast v1, [s1+0], 16", "line 1: element size"},
		{"gather element size 3", "\tv_gather v0, [s1+v2*3+0]", "line 1: element size"},
		{"scatter element size 0", "\tv_scatter [s1+v2*0+0], v3", "line 1: element size"},
		{"guard out of range", "\tv_add v1, v2, v3 ?p99", "line 1: bad predicate"},
		{"negative guard", "\tv_add v1, v2, v3 ?p-1", "line 1: bad predicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("%q must be rejected", c.src)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestAssembleWithData parses .data directives and applies them to an
// image the way cmd/srvsim does.
func TestAssembleWithData(t *testing.T) {
	src := `
.data 0x1000, 4, 10, 20, 30
.data 0x2000, 8, -1

	movi s0, 0x1000
	load s1, [s0+4], 4
	halt`
	prog, inits, err := AssembleWithData(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(inits) != 2 {
		t.Fatalf("inits = %d, want 2", len(inits))
	}
	if inits[0].Addr != 0x1000 || inits[0].Elem != 4 || len(inits[0].Values) != 3 {
		t.Errorf("first init parsed wrong: %+v", inits[0])
	}
	im := mem.NewImage()
	for _, d := range inits {
		for i, v := range d.Values {
			im.WriteInt(d.Addr+uint64(i*d.Elem), d.Elem, v)
		}
	}
	ip := NewInterp(prog, im)
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.S[1] != 20 {
		t.Errorf("s1 = %d, want 20 (a[1] of the .data block)", ip.S[1])
	}
	if got := im.ReadInt(0x2000, 8); got != -1 {
		t.Errorf("8-byte init = %d, want -1", got)
	}
}

// TestInterpScalarProgram runs a scalar-only program (branch loop, loads,
// stores) on the functional interpreter — the same path the pipeline's
// differential tests use for SRV code, here exercised without regions.
func TestInterpScalarProgram(t *testing.T) {
	im := mem.NewImage()
	base := im.Alloc(32*4, 64)
	for i := 0; i < 32; i++ {
		im.WriteInt(base+uint64(i*4), 4, int64(i))
	}
	// Sum a[0..31] into s3, doubling odd elements.
	prog := MustAssemble(`
	movi s0, ` + itoa(int64(base)) + `
	movi s1, 0
	movi s2, 32
	movi s3, 0
	movi s6, 1
	movi s7, 0
loop:
	load s4, [s0+0], 4
	and  s5, s4, s6
	beq  s5, s7, even
	add  s4, s4, s4
even:
	add  s3, s3, s4
	addi s0, s0, 4
	addi s1, s1, 1
	blt  s1, s2, loop
	store [s0+0], s3, 4
	halt`)
	ip := NewInterp(prog, im)
	if err := ip.Run(10_000); err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(0); i < 32; i++ {
		v := i
		if i%2 == 1 {
			v *= 2
		}
		want += v
	}
	if ip.S[3] != want {
		t.Errorf("sum = %d, want %d", ip.S[3], want)
	}
	if got := im.ReadInt(base+32*4, 4); got != want {
		t.Errorf("stored sum = %d, want %d", got, want)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
