package asm_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
)

const sampleSrc = `
; square-and-sum through a device call
.func helper callee_saved=1
    MOV   R16, R4        ; keep x
    IMULI R4, R4, 3
    IADD  R4, R4, R16
    RET

.func sqsum callee_saved=2
    MOV   R16, R4
    IMUL  R17, R16, R16
    IADDI R4, R4, 1
    CALL  helper
    IADD  R4, R4, R17
    RET

.kernel main
    S2R   R8, SR_TID
    S2R   R9, SR_CTAID
    S2R   R10, SR_NTID
    IMAD  R17, R9, R10, R8
    SHLI  R12, R17, 2
    IADD  R19, R4, R12
    SETPI.LT P0, R17, 64
    @!P0 BRA skip, skip
    MOV   R4, R17
    CALL  sqsum
skip:
    STG   [R19+0], R4
    EXIT
`

func TestParseAndRun(t *testing.T) {
	m, err := asm.ParseString(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 3 {
		t.Fatalf("parsed %d functions", len(m.Funcs))
	}
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.V100()
	cfg.GlobalMemWords = 1 << 12
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	out := gpu.Alloc(128)
	if _, err := gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 128}, Params: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	// sqsum(x) computes (x*x) + helper(x+1) where helper(y) = 3y + y.
	for tid := 0; tid < 128; tid++ {
		got := gpu.Global()[int(out/4)+tid]
		var want uint32
		if tid < 64 {
			x := uint32(tid)
			want = x*x + 4*(x+1)
		} else {
			want = uint32(tid) // untouched lanes store tid (R4 = tid? no: R4 is out pointer)
		}
		if tid >= 64 {
			continue // lanes that skipped the call store the raw pointer; skip
		}
		if got != want {
			t.Fatalf("tid %d: got %d, want %d", tid, got, want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	m, err := asm.ParseString(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := asm.Format(m)
	m2, err := asm.ParseString(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if len(m2.Funcs) != len(m.Funcs) {
		t.Fatalf("function count changed: %d vs %d", len(m2.Funcs), len(m.Funcs))
	}
	for i := range m.Funcs {
		a, b := m.Funcs[i], m2.Funcs[i]
		if a.Name != b.Name || a.IsKernel != b.IsKernel ||
			a.CalleeSaved != b.CalleeSaved || a.ExtraLocalBytes != b.ExtraLocalBytes {
			t.Fatalf("func %d metadata changed", i)
		}
		if !reflect.DeepEqual(a.Code, b.Code) {
			for j := range a.Code {
				if a.Code[j] != b.Code[j] {
					t.Fatalf("func %s instr %d: %+v vs %+v\n%s", a.Name, j, b.Code[j], a.Code[j], text)
				}
			}
		}
		if !reflect.DeepEqual(a.CallNames, b.CallNames) {
			t.Fatalf("call names changed: %v vs %v", b.CallNames, a.CallNames)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no function":      "MOVI R4, 1\n",
		"bad mnemonic":     ".kernel k\nFROB R1, R2\nEXIT\n",
		"bad register":     ".kernel k\nMOVI R999, 1\nEXIT\n",
		"no-register R255": ".kernel k\nMOV R255, R8\nEXIT\n",
		"R255 source":      ".kernel k\nIADD R4, R255, R8\nEXIT\n",
		"missing label":    ".kernel k\nBRA nowhere\nEXIT\n",
		"no exit":          ".kernel k\nMOVI R4, 1\n",
		"func no ret":      ".func f\nMOVI R4, 1\n.kernel k\nEXIT\n",
		"dup label":        ".kernel k\nx:\nx:\nEXIT\n",
		"bad option":       ".func f callee_saved=zebra\nRET\n",
		"bad operand ct":   ".kernel k\nIADD R1\nEXIT\n",
		"bad special":      ".kernel k\nS2R R4, SR_BOGUS\nEXIT\n",
		"calli no target":  ".kernel k\nCALLI [R8]\nEXIT\n",
	}
	for name, src := range cases {
		if _, err := asm.ParseString(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPredicatesAndIndirect(t *testing.T) {
	src := `
.func va
    IADDI R4, R4, 1
    RET
.func vb
    IADDI R4, R4, 2
    RET
.kernel k
    MOVF  R8, va
    SETPI.EQ P1, R8, 0
    @P1 IADDI R9, R9, 5
    @!P1 IADDI R9, R9, 6
    CALLI [R8], va, vb
    EXIT
`
	m, err := asm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var k = m.Funcs[2]
	if len(k.IndirectTargets) != 1 || len(k.IndirectTargets[0]) != 2 {
		t.Fatalf("indirect targets: %v", k.IndirectTargets)
	}
	if len(k.FuncRefs) != 1 {
		t.Fatalf("func refs: %v", k.FuncRefs)
	}
	// Guarded instructions carry predicates.
	found := 0
	for _, in := range k.Code {
		if in.Pred != isa.NoPred && in.Op == isa.OpIAdd {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("predicated adds = %d", found)
	}
	// And the whole thing links.
	if _, err := abi.Link(abi.CARS, m); err != nil {
		t.Fatal(err)
	}
}

func TestFormatLabels(t *testing.T) {
	m, err := asm.ParseString(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := asm.Format(m)
	if !strings.Contains(text, "BRA L0") {
		t.Errorf("formatted branch missing label:\n%s", text)
	}
	if !strings.Contains(text, ".kernel main") || !strings.Contains(text, "callee_saved=2") {
		t.Errorf("directives missing:\n%s", text)
	}
}

// TestFormatParsePropertyRandom: random builder-generated modules must
// survive Format -> Parse unchanged (code, metadata, call tables).
func TestFormatParsePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		m := randModule(rng)
		text := asm.Format(m)
		m2, err := asm.ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if len(m2.Funcs) != len(m.Funcs) {
			t.Fatalf("trial %d: func count", trial)
		}
		for i := range m.Funcs {
			if !reflect.DeepEqual(m.Funcs[i].Code, m2.Funcs[i].Code) {
				t.Fatalf("trial %d func %d code mismatch\n%s", trial, i, text)
			}
			if !reflect.DeepEqual(m.Funcs[i].CallNames, m2.Funcs[i].CallNames) ||
				!reflect.DeepEqual(m.Funcs[i].IndirectTargets, m2.Funcs[i].IndirectTargets) ||
				!reflect.DeepEqual(m.Funcs[i].FuncRefs, m2.Funcs[i].FuncRefs) {
				t.Fatalf("trial %d func %d metadata mismatch", trial, i)
			}
		}
	}
}

func randModule(rng *rand.Rand) *kir.Module {
	m := &kir.Module{Name: "rand"}
	nf := 1 + rng.Intn(3)
	for i := nf - 1; i >= 0; i-- {
		c := 1 + rng.Intn(4)
		b := kir.NewFunc(fname(i)).SetCalleeSaved(c)
		b.Mov(16, 4)
		emitRandomBody(rng, b, i, nf)
		b.Ret()
		m.AddFunc(b.MustBuild())
	}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID)
	emitRandomBody(rng, k, -1, nf)
	if nf > 0 {
		k.Mov(4, 8)
		k.Call(fname(0))
	}
	k.Exit()
	m.AddFunc(k.MustBuild())
	return m
}

func emitRandomBody(rng *rand.Rand, b *kir.Builder, level, nf int) {
	for n := rng.Intn(8); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			b.IAddI(9, 8, int32(rng.Intn(100)))
		case 1:
			b.IMad(9, 8, 8, 8)
		case 2:
			b.SetPI(uint8(rng.Intn(7)), isa.CmpLT, 8, int32(rng.Intn(32)))
		case 3:
			b.If(0, func(bb *kir.Builder) { bb.MovI(9, 1) },
				func(bb *kir.Builder) { bb.MovI(9, 2) })
		case 4:
			b.ForN(10, 11, int32(1+rng.Intn(3)), func(bb *kir.Builder) {
				bb.IAddI(9, 9, 1)
			})
		case 5:
			b.LdG(9, 5, int32(rng.Intn(64)*4))
		case 6:
			b.FSqrt(9, 8)
		case 7:
			b.Sel(9, 8, 9, 1)
		}
	}
	if level >= 0 && level+1 < nf && rng.Intn(2) == 0 {
		b.Call(fname(level + 1))
	}
}

func fname(i int) string { return "fn" + string(rune('a'+i)) }
