package binfmt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

func sampleProgram(t *testing.T, mode abi.Mode) *isa.Program {
	t.Helper()
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		SetPI(0, isa.CmpGT, 8, 4).
		If(0, func(b *kir.Builder) { b.MovI(9, 1) }, func(b *kir.Builder) { b.MovI(9, 2) }).
		Mov(4, 9).
		Call("f").
		MovFuncIdx(10, "va").
		CallIndirect(10, "va", "vb").
		StG(4, 8, 9).
		Exit()
	m.AddFunc(k.MustBuild())
	f := kir.NewFunc("f").SetCalleeSaved(3).SetExtraLocalBytes(8)
	f.Mov(16, 4).MovI(17, 5).MovI(18, 6).
		StL(1, 0, 16).
		LdL(4, 1, 0).
		Call("va").
		Ret()
	m.AddFunc(f.MustBuild())
	for _, n := range []string{"va", "vb"} {
		fn := kir.NewFunc(n).SetCalleeSaved(1)
		fn.Mov(16, 4).IMulI(4, 4, 3).Ret()
		m.AddFunc(fn.MustBuild())
	}
	prog, err := abi.Link(mode, m)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func roundTrip(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRoundTripBaseline(t *testing.T) {
	p := sampleProgram(t, abi.Baseline)
	q := roundTrip(t, p)
	if q.CARS != p.CARS || q.StaticRegsPerWarp != p.StaticRegsPerWarp {
		t.Fatalf("program header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Funcs) != len(p.Funcs) {
		t.Fatalf("function count: %d vs %d", len(q.Funcs), len(p.Funcs))
	}
	for i := range p.Funcs {
		pf, qf := p.Funcs[i], q.Funcs[i]
		if pf.Name != qf.Name || pf.IsKernel != qf.IsKernel ||
			pf.RegsUsed != qf.RegsUsed || pf.CalleeSaved != qf.CalleeSaved ||
			pf.LocalFrameBytes != qf.LocalFrameBytes {
			t.Fatalf("func %d metadata: %+v vs %+v", i, qf, pf)
		}
		if !reflect.DeepEqual(pf.Code, qf.Code) {
			for j := range pf.Code {
				if pf.Code[j] != qf.Code[j] {
					t.Fatalf("func %s instr %d: %+v vs %+v", pf.Name, j, qf.Code[j], pf.Code[j])
				}
			}
		}
		if !reflect.DeepEqual(pf.Callees, qf.Callees) {
			t.Fatalf("func %s callees: %v vs %v", pf.Name, qf.Callees, pf.Callees)
		}
		if !reflect.DeepEqual(pf.IndirectTargets, qf.IndirectTargets) {
			t.Fatalf("func %s indirect: %v vs %v", pf.Name, qf.IndirectTargets, pf.IndirectTargets)
		}
	}
	if !reflect.DeepEqual(p.Kernels, q.Kernels) {
		t.Fatalf("kernels: %v vs %v", q.Kernels, p.Kernels)
	}
}

func TestRoundTripCARS(t *testing.T) {
	p := sampleProgram(t, abi.CARS)
	q := roundTrip(t, p)
	if !q.CARS {
		t.Fatal("CARS flag lost")
	}
	// Push/pop micro-ops and FRUs survive.
	f := q.FuncByName("f")
	foundPush := false
	for i := range f.Code {
		if f.Code[i].Op == isa.OpPush {
			foundPush = true
		}
		if f.Code[i].Op == isa.OpRet && f.Code[i].FRU != f.FRU() {
			t.Fatalf("ret FRU lost: %d", f.Code[i].FRU)
		}
	}
	if !foundPush {
		t.Fatal("PUSH micro-op lost")
	}
}

func TestCorruptImagesRejected(t *testing.T) {
	p := sampleProgram(t, abi.Baseline)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"bad magic":    func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"bad version":  func(b []byte) []byte { c := clone(b); c[4] = 99; return c },
		"truncated":    func(b []byte) []byte { return clone(b)[:len(b)/2] },
		"section oob":  func(b []byte) []byte { c := clone(b); c[20] = 0xFF; c[21] = 0xFF; c[22] = 0xFF; return c },
		"many section": func(b []byte) []byte { c := clone(b); c[12] = 200; return c },
	}
	for name, corrupt := range cases {
		if _, err := Read(bytes.NewReader(corrupt(raw))); err == nil {
			t.Errorf("%s: corrupt image accepted", name)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestSpillMarkSurvives(t *testing.T) {
	p := sampleProgram(t, abi.Baseline)
	q := roundTrip(t, p)
	spills := 0
	for _, f := range q.Funcs {
		for i := range f.Code {
			if f.Code[i].Spill {
				spills++
			}
		}
	}
	if spills == 0 {
		t.Fatal("spill marks lost in round trip")
	}
}

func TestWriteRejectsInvalidProgram(t *testing.T) {
	p := sampleProgram(t, abi.Baseline)
	p.Funcs[0].Code[len(p.Funcs[0].Code)-3].Callee = 99
	var buf bytes.Buffer
	if err := Write(&buf, p); err == nil {
		t.Skip("sample mutation did not hit a call; acceptable")
	}
}

// TestInstrRoundTripProperty encodes and decodes randomized (but
// well-formed) instructions via testing/quick.
func TestInstrRoundTripProperty(t *testing.T) {
	f := func(op uint8, dst, srcA, srcB, srcC, pdst, pred uint8, pneg, spill bool,
		imm int32, cmp uint8, sreg uint8, tgt2 uint16, fru uint16) bool {
		in := isa.Instruction{
			Op:  isa.Op(op % uint8(isa.OpPop+1)),
			Dst: dst, SrcA: srcA, SrcB: srcB, SrcC: srcC,
			PDst: pdst, Pred: pred, PNeg: pneg, Spill: spill,
			Cmp: isa.CmpKind(cmp % 6), Sreg: isa.Special(sreg % 6),
			Target2: int(tgt2), FRU: int(fru),
		}
		// Word2 carries exactly one of Imm/Callee/Target per opcode.
		switch in.Op {
		case isa.OpCall:
			in.Callee = int(uint32(imm) % (1 << 20))
		case isa.OpBra, isa.OpSSY:
			in.Target = int(uint32(imm) % (1 << 20))
		case isa.OpCallI:
			in.Callee = -1
			in.Imm = imm
		default:
			in.Imm = imm
		}
		var b bytes.Buffer
		if err := encodeInstr(&b, &in); err != nil {
			return false
		}
		got := decodeInstr(b.Bytes())
		if in.Op == isa.OpCallI {
			// CALLI's immediate is not meaningful; only Callee=-1 must
			// survive.
			in.Imm, got.Imm = 0, 0
		}
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWriteIsDeterministic writes a many-kernel program repeatedly: the
// kernel table lives in a map, and its encoding must not follow the
// map's iteration order.
func TestWriteIsDeterministic(t *testing.T) {
	m := &kir.Module{Name: "m"}
	for i := 0; i < 16; i++ {
		k := kir.NewKernel(fmtName(i))
		k.MovI(4, int32(i)).Exit()
		m.AddFunc(k.MustBuild())
	}
	p, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := Write(&first, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := Write(&again, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("write %d encodes the same program to different bytes", i+2)
		}
	}
}

// TestProgramRoundTripProperty round-trips randomized call-chain
// programs through the binary image.
func TestProgramRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := &kir.Module{Name: "m"}
		n := 1 + rng.Intn(5)
		for i := n - 1; i >= 0; i-- {
			b := kir.NewFunc(fmtName(i)).SetCalleeSaved(1 + rng.Intn(6))
			b.Mov(16, 4)
			if i+1 < n && rng.Intn(2) == 0 {
				b.Call(fmtName(i + 1))
			}
			b.Ret()
			m.AddFunc(b.MustBuild())
		}
		k := kir.NewKernel("main")
		k.MovI(4, 1)
		if n > 0 {
			k.Call(fmtName(0))
		}
		k.Exit()
		m.AddFunc(k.MustBuild())
		mode := abi.Baseline
		if trial%2 == 0 {
			mode = abi.CARS
		}
		p, err := abi.Link(mode, m)
		if err != nil {
			t.Fatal(err)
		}
		q := roundTrip(t, p)
		if len(q.Funcs) != len(p.Funcs) || q.CARS != p.CARS {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
		for i := range p.Funcs {
			if !reflect.DeepEqual(p.Funcs[i].Code, q.Funcs[i].Code) {
				t.Fatalf("trial %d func %d code mismatch", trial, i)
			}
		}
	}
}

func fmtName(i int) string { return string(rune('a'+i)) + "f" }
