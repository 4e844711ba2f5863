package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                              Op
		mem, local, global, load, store bool
		control, call, carsOp, sfu      bool
	}{
		{op: OpIAdd},
		{op: OpLdG, mem: true, global: true, load: true},
		{op: OpStG, mem: true, global: true, store: true},
		{op: OpLdL, mem: true, local: true, load: true},
		{op: OpStL, mem: true, local: true, store: true},
		{op: OpLdS, mem: true, load: true},
		{op: OpStS, mem: true, store: true},
		{op: OpBra, control: true},
		{op: OpCall, control: true, call: true},
		{op: OpCallI, control: true, call: true},
		{op: OpRet, control: true},
		{op: OpExit, control: true},
		{op: OpPush, carsOp: true},
		{op: OpPop, carsOp: true},
		{op: OpPushRFP, carsOp: true},
		{op: OpFRcp, sfu: true},
		{op: OpFSqr, sfu: true},
	}
	for _, c := range cases {
		if got := c.op.IsMemory(); got != c.mem {
			t.Errorf("%s.IsMemory() = %v", c.op, got)
		}
		if got := c.op.IsLocal(); got != c.local {
			t.Errorf("%s.IsLocal() = %v", c.op, got)
		}
		if got := c.op.IsGlobal(); got != c.global {
			t.Errorf("%s.IsGlobal() = %v", c.op, got)
		}
		if got := c.op.IsLoad(); got != c.load {
			t.Errorf("%s.IsLoad() = %v", c.op, got)
		}
		if got := c.op.IsStore(); got != c.store {
			t.Errorf("%s.IsStore() = %v", c.op, got)
		}
		if got := c.op.IsControl(); got != c.control {
			t.Errorf("%s.IsControl() = %v", c.op, got)
		}
		if got := c.op.IsCall(); got != c.call {
			t.Errorf("%s.IsCall() = %v", c.op, got)
		}
		if got := c.op.IsCARSOp(); got != c.carsOp {
			t.Errorf("%s.IsCARSOp() = %v", c.op, got)
		}
		if got := c.op.IsSFU(); got != c.sfu {
			t.Errorf("%s.IsSFU() = %v", c.op, got)
		}
	}
}

func TestOpStringsDistinct(t *testing.T) {
	seen := map[string]Op{}
	for op := OpNop; op <= OpPop; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "OP(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		cmp  CmpKind
		a, b int32
		want bool
	}{
		{CmpEQ, 3, 3, true}, {CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true}, {CmpNE, 4, 4, false},
		{CmpLT, -1, 0, true}, {CmpLT, 0, -1, false},
		{CmpLE, 2, 2, true}, {CmpLE, 3, 2, false},
		{CmpGT, 0, -1, true}, {CmpGT, -1, 0, false},
		{CmpGE, -5, -5, true}, {CmpGE, -6, -5, false},
	}
	for _, c := range cases {
		if got := c.cmp.Eval(uint32(c.a), uint32(c.b)); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.cmp, c.a, c.b, got, c.want)
		}
	}
}

// Property: comparisons are mutually consistent on arbitrary inputs.
func TestCmpConsistencyProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		eq := CmpEQ.Eval(a, b)
		ne := CmpNE.Eval(a, b)
		lt := CmpLT.Eval(a, b)
		le := CmpLE.Eval(a, b)
		gt := CmpGT.Eval(a, b)
		ge := CmpGE.Eval(a, b)
		if eq == ne {
			return false
		}
		if le != (lt || eq) || ge != (gt || eq) {
			return false
		}
		// exactly one of lt, eq, gt
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstructionReads(t *testing.T) {
	in := Instruction{Op: OpIMad, Dst: 5, SrcA: 1, SrcB: 2, SrcC: 3, Pred: NoPred}
	if got := in.Reads(nil); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Reads = %v", got)
	}
	in2 := Instruction{Op: OpMovI, Dst: 5, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg}
	if got := in2.Reads(nil); len(got) != 0 {
		t.Errorf("MovI Reads = %v", got)
	}
	if !in.WritesReg() {
		t.Error("IMad should write a register")
	}
}

func TestFunctionFRU(t *testing.T) {
	f := &Function{CalleeSaved: 0}
	if got := f.FRU(); got != 1 {
		t.Errorf("FRU with no saved regs = %d, want 1 (saved-RFP slot)", got)
	}
	f.CalleeSaved = 3
	if got := f.FRU(); got != 4 {
		t.Errorf("FRU = %d, want callee-saved+1 = 4", got)
	}
}

func TestProgramValidate(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Funcs: []*Function{
				{Name: "k", IsKernel: true, RegsUsed: 8, Callees: []int{1}, Code: []Instruction{
					{Op: OpCall, Callee: 1, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg},
					{Op: OpExit, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg},
				}},
				{Name: "f", RegsUsed: 8, Code: []Instruction{
					{Op: OpRet, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg},
				}},
			},
			Kernels: map[string]int{"k": 0},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	p := mk()
	p.Funcs[0].Code[0].Callee = 7
	if err := p.Validate(); err == nil {
		t.Error("out-of-range call target accepted")
	}
	p = mk()
	p.Kernels["f"] = 1
	if err := p.Validate(); err == nil {
		t.Error("non-kernel registered as kernel accepted")
	}
	p = mk()
	p.Funcs[0].Code[0] = Instruction{Op: OpBra, Target: 99, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg}
	p.Funcs[0].Callees = nil
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	p = mk()
	p.Funcs[0].Callees = []int{9}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range callee entry accepted")
	}
	p = mk()
	p.Funcs[0].Callees = []int{1, 1}
	if err := p.Validate(); err == nil {
		t.Error("callee entry count mismatch accepted")
	}
	p = mk()
	p.Funcs[1].IndirectTargets = [][]int{{0, 1}}
	if err := p.Validate(); err == nil {
		t.Error("indirect candidate sets without CALLI sites accepted")
	}
	p = mk()
	p.Funcs[1].Code = []Instruction{
		{Op: OpCallI, Callee: -1, Dst: NoReg, SrcA: 8, SrcB: NoReg, SrcC: NoReg},
		{Op: OpRet, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg},
	}
	p.Funcs[1].IndirectTargets = [][]int{{99}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range indirect candidate accepted")
	}
	p = mk()
	p.Funcs[0].Code[0] = Instruction{Op: OpBra, Pred: 3, Target: 1, Target2: -2, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg}
	p.Funcs[0].Callees = nil
	if err := p.Validate(); err == nil {
		t.Error("out-of-range reconvergence target accepted")
	}
}

// TestValidateCalleesMatchCalls: each Callees entry must name the
// target of its CALL. Callees feeds the call-graph analysis (and so
// the CARS watermark budgets) while execution follows the instruction,
// so metadata pointing a call at `big` to the smaller `small` would
// budget a register stack the call overruns.
func TestValidateCalleesMatchCalls(t *testing.T) {
	nop := Instruction{Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg}
	call, exit, ret := nop, nop, nop
	call.Op, call.Callee = OpCall, 1
	exit.Op, ret.Op = OpExit, OpRet
	p := &Program{
		Funcs: []*Function{
			{Name: "k", IsKernel: true, RegsUsed: 8, Callees: []int{1}, Code: []Instruction{call, exit}},
			{Name: "big", RegsUsed: 24, CalleeSaved: 8, Code: []Instruction{ret}},
			{Name: "small", RegsUsed: 17, CalleeSaved: 1, Code: []Instruction{ret}},
		},
		Kernels: map[string]int{"k": 0},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	p.Funcs[0].Callees = []int{2}
	err := p.Validate()
	if err == nil {
		t.Fatal("Callees naming small for a CALL to big accepted")
	}
	if !strings.Contains(err.Error(), "callee entry 0") {
		t.Errorf("error %q does not name the mismatched entry", err)
	}
}

// TestValidateSyncOps covers the synchronization-op rules: SSY must
// reconverge at a real instruction index (unlike BRA, one-past-the-end
// is rejected) and BAR.SYNC must not carry a guard predicate.
func TestValidateSyncOps(t *testing.T) {
	mk := func(ins ...Instruction) *Program {
		code := append(ins, Instruction{Op: OpExit, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg})
		return &Program{
			Funcs:   []*Function{{Name: "k", IsKernel: true, RegsUsed: 8, Code: code}},
			Kernels: map[string]int{"k": 0},
		}
	}
	cases := []struct {
		name string
		in   Instruction
		ok   bool
	}{
		{
			name: "SSY to valid index",
			in:   Instruction{Op: OpSSY, Target2: 1, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   true,
		},
		{
			name: "SSY one past the end",
			in:   Instruction{Op: OpSSY, Target2: 2, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   false,
		},
		{
			name: "SSY far out of range",
			in:   Instruction{Op: OpSSY, Target2: 99, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   false,
		},
		{
			name: "SSY negative",
			in:   Instruction{Op: OpSSY, Target2: -1, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   false,
		},
		{
			name: "bare BAR",
			in:   Instruction{Op: OpBar, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   true,
		},
		{
			name: "predicated BAR",
			in:   Instruction{Op: OpBar, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: 2},
			ok:   false,
		},
		{
			name: "negated-predicate BAR",
			in:   Instruction{Op: OpBar, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: 5, PNeg: true},
			ok:   false,
		},
		{
			name: "BRA one past the end still allowed",
			in:   Instruction{Op: OpBra, Target: 2, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred},
			ok:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mk(tc.in).Validate()
			if tc.ok && err != nil {
				t.Errorf("valid program rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("invalid instruction %s accepted", tc.in.String())
			}
		})
	}
}

func TestDim3Warps(t *testing.T) {
	for _, c := range []struct{ block, want int }{
		{1, 1}, {32, 1}, {33, 2}, {64, 2}, {255, 8}, {256, 8},
	} {
		if got := (Dim3{Grid: 1, Block: c.block}).Warps(); got != c.want {
			t.Errorf("Warps(%d) = %d, want %d", c.block, got, c.want)
		}
	}
}

func TestKernelLookup(t *testing.T) {
	p := &Program{Kernels: map[string]int{"main": 0}, Funcs: []*Function{{Name: "main", IsKernel: true}}}
	if _, err := p.Kernel("main"); err != nil {
		t.Error(err)
	}
	if _, err := p.Kernel("nope"); err == nil {
		t.Error("missing kernel lookup succeeded")
	}
	if f := p.FuncByName("main"); f == nil {
		t.Error("FuncByName failed")
	}
	if f := p.FuncByName("nope"); f != nil {
		t.Error("FuncByName found a ghost")
	}
}

func TestDisassembly(t *testing.T) {
	in := Instruction{Op: OpLdG, Dst: 7, SrcA: 4, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Imm: 16}
	if got := in.String(); got != "LDG R7, [R4+16]" {
		t.Errorf("disasm = %q", got)
	}
	in = Instruction{Op: OpSetP, PDst: 2, SrcA: 3, SrcB: 4, Dst: NoReg, SrcC: NoReg, Pred: NoPred, Cmp: CmpLT}
	if got := in.String(); got != "SETP.LT P2, R3, R4" {
		t.Errorf("disasm = %q", got)
	}
	in = Instruction{Op: OpIAdd, Dst: 1, SrcA: 2, SrcB: 3, SrcC: NoReg, Pred: 0, PNeg: true}
	if got := in.String(); !strings.HasPrefix(got, "@!P0 IADD") {
		t.Errorf("predicated disasm = %q", got)
	}
}

func TestDisassemblyAllForms(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpMovI, Dst: 4, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Imm: -7}, "MOVI R4, -7"},
		{Instruction{Op: OpS2R, Dst: 8, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Sreg: SrWarpID}, "S2R R8, SR_WARPID"},
		{Instruction{Op: OpStS, Dst: NoReg, SrcA: 4, SrcB: NoReg, SrcC: 9, Pred: NoPred, Imm: 8}, "STS [R4+8], R9"},
		{Instruction{Op: OpBra, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Target: 12}, "BRA 12"},
		{Instruction{Op: OpSSY, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Target2: 9}, "SSY 9"},
		{Instruction{Op: OpCall, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Callee: 3, FRU: 5}, "CALL F3 (FRU=5)"},
		{Instruction{Op: OpCallI, Dst: NoReg, SrcA: 8, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Callee: -1, FRU: 4}, "CALLI [R8] (FRU=4)"},
		{Instruction{Op: OpRet, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, FRU: 2}, "RET (FRU=2)"},
		{Instruction{Op: OpPush, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Imm: 3}, "PUSH 3"},
		{Instruction{Op: OpPop, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred, Imm: 3}, "POP 3"},
		{Instruction{Op: OpIMad, Dst: 5, SrcA: 1, SrcB: 2, SrcC: 3, Pred: NoPred}, "IMAD R5, R1, R2, R3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestSpecialStrings(t *testing.T) {
	for s := SrLaneID; s <= SrWarpID; s++ {
		if s.String() == "SR_?" {
			t.Errorf("special %d unnamed", s)
		}
	}
	if Special(99).String() != "SR_?" {
		t.Error("unknown special not flagged")
	}
	if CmpKind(99).String() != "?" {
		t.Error("unknown cmp not flagged")
	}
	if CmpKind(99).Eval(1, 1) {
		t.Error("unknown cmp evaluates true")
	}
	if Op(200).String() == "" {
		t.Error("unknown op string empty")
	}
}

func TestFunctionDisassembleHeader(t *testing.T) {
	f := &Function{Name: "k", IsKernel: true, RegsUsed: 10, CalleeSaved: 0,
		Code: []Instruction{{Op: OpExit, Dst: NoReg, SrcA: NoReg, SrcB: NoReg, SrcC: NoReg, Pred: NoPred}}}
	s := f.Disassemble()
	if !strings.Contains(s, "kernel k") || !strings.Contains(s, "EXIT") {
		t.Errorf("disassembly header: %q", s)
	}
}
