package vet

import (
	"strings"
	"testing"

	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// runLinked runs the per-function analyses on builder output as if it
// were a linked baseline function (no ABI micro-ops, no spills), which
// exercises the full path including cost collapse.
func runLinked(t *testing.T, f *kir.Func) *funcVet {
	t.Helper()
	v := &funcVet{
		name:     f.Name,
		code:     f.Code,
		isKernel: f.IsKernel,
		mode:     modeBaseline,
		linked:   true,
	}
	v.run()
	return v
}

// runPreABI runs the pre-ABI module path (funcref tracking enabled).
func runPreABI(t *testing.T, f *kir.Func) *funcVet {
	t.Helper()
	v := &funcVet{
		name:        f.Name,
		code:        f.Code,
		isKernel:    f.IsKernel,
		calleeSaved: f.CalleeSaved,
		preABI:      f,
	}
	v.run()
	return v
}

func hasCheck(diags []Diagnostic, c Check) bool {
	for _, d := range diags {
		if d.Check == c {
			return true
		}
	}
	return false
}

// TestRangeTripCountForN: the builder's constant-trip loop shape must
// yield a concrete trip bound, a dead-guard fact, and a collapsed
// (finite, exact) cost bound instead of a symbolic ×loop term.
func TestRangeTripCountForN(t *testing.T) {
	k := kir.NewKernel("k")
	k.ForN(16, 17, 8, func(b *kir.Builder) {
		b.LdL(10, 1, 0)
	})
	k.Exit()
	v := runLinked(t, k.MustBuild())

	rng := v.summary.rng
	if rng == nil {
		t.Fatal("no range summary")
	}
	if len(rng.trips) != 1 {
		t.Fatalf("trips = %v, want exactly one bounded loop", rng.trips)
	}
	for _, trips := range rng.trips {
		if trips != 8 {
			t.Errorf("derived trips = %d, want 8", trips)
		}
	}
	// The zero-trip guard is statically dead (8 > 0).
	if !hasCheck(v.diags, CheckDeadBranch) {
		t.Error("no dead-branch diagnostic for the constant-trip guard")
	}
	// The local traffic collapses to an exact finite bound: 8 × 4B.
	lb := v.summary.cost.localBytes.bound()
	if !lb.Finite() || lb.Value != 32 {
		t.Errorf("local bytes = %s, want exact 32", lb.Sym)
	}
}

// TestRangeUnknownTripStaysSymbolic: a register-limited loop (limit is
// a kernel parameter) must keep its symbolic ×loop cost term.
func TestRangeUnknownTripStaysSymbolic(t *testing.T) {
	k := kir.NewKernel("k")
	k.For(16, 4, func(b *kir.Builder) { // R4: parameter, unknown
		b.LdL(10, 1, 0)
	})
	k.Exit()
	v := runLinked(t, k.MustBuild())

	if n := len(v.summary.rng.trips); n != 0 {
		t.Errorf("derived %d trip bounds from an unknown limit, want 0", n)
	}
	lb := v.summary.cost.localBytes.bound()
	if lb.Finite() || lb.Unbounded || !strings.Contains(lb.Sym, "×loop") {
		t.Errorf("local bytes = %s, want symbolic ×loop", lb.Sym)
	}
}

// TestRangeNestedCollapse: a constant loop nested in a constant loop
// multiplies out; a constant loop under an unknown loop keeps one
// symbolic degree scaled by the known bound.
func TestRangeNestedCollapse(t *testing.T) {
	k := kir.NewKernel("k")
	k.ForN(16, 17, 4, func(b *kir.Builder) {
		b.ForN(18, 19, 8, func(b *kir.Builder) {
			b.LdL(10, 1, 0)
		})
	})
	k.Exit()
	v := runLinked(t, k.MustBuild())
	lb := v.summary.cost.localBytes.bound()
	if !lb.Finite() || lb.Value != 4*8*4 {
		t.Errorf("nested local bytes = %s, want exact %d", lb.Sym, 4*8*4)
	}

	k2 := kir.NewKernel("k2")
	k2.For(16, 4, func(b *kir.Builder) { // unknown outer
		b.ForN(18, 19, 8, func(b *kir.Builder) { // known inner
			b.LdL(10, 1, 0)
		})
	})
	k2.Exit()
	v2 := runLinked(t, k2.MustBuild())
	lb2 := v2.summary.cost.localBytes.bound()
	if lb2.Finite() || lb2.Unbounded {
		t.Fatalf("mixed nest local bytes = %s, want symbolic", lb2.Sym)
	}
	if !strings.Contains(lb2.Sym, "32×loop") {
		t.Errorf("mixed nest local bytes = %q, want the inner bound folded into 32×loop", lb2.Sym)
	}
}

// TestRangeDeadBranchConstantCondition: a comparison between constants
// makes both a never-taken and an always-taken branch detectable.
func TestRangeDeadBranchConstantCondition(t *testing.T) {
	k := kir.NewKernel("k")
	k.MovI(10, 3)
	k.SetPI(0, isa.CmpEQ, 10, 4) // 3 == 4: never
	k.If(0, func(b *kir.Builder) {
		b.MovI(11, 1)
	}, nil)
	k.Exit()
	v := runLinked(t, k.MustBuild())
	if !hasCheck(v.diags, CheckDeadBranch) {
		t.Fatal("constant-false condition not reported as a dead branch")
	}
	if len(v.summary.rng.deadBranches) != 1 {
		t.Fatalf("deadBranches = %v, want one fact", v.summary.rng.deadBranches)
	}
	// If's guard is @!P0 BRA end: P0 false means the branch IS taken,
	// i.e. the condition always holds and the fall-through is dead.
	if !v.summary.rng.deadBranches[0].always {
		t.Error("dead-branch fact has always=false, want always=true (branch always taken)")
	}
}

// TestRangeOOBNegativeAddress: a store whose address is provably
// negative on every execution is an error; an in-bounds one is silent.
func TestRangeOOBNegativeAddress(t *testing.T) {
	k := kir.NewKernel("k")
	k.MovI(10, -8)
	k.StL(10, 0, 4) // address [-8,-8]
	k.Exit()
	v := runLinked(t, k.MustBuild())
	if !hasCheck(v.diags, CheckOOB) {
		t.Error("provably negative local store not reported")
	}

	k2 := kir.NewKernel("k2")
	k2.MovI(10, 0)
	k2.StL(10, 0, 4)
	k2.Exit()
	v2 := runLinked(t, k2.MustBuild())
	if hasCheck(v2.diags, CheckOOB) {
		t.Error("in-bounds store reported as OOB")
	}

	// A shared load at [R12-4] behind a branch on R9 == 0. With R9 = 1
	// the fixpoint proves the branch dead and never reaches the load,
	// so the load's state is not the all-zero one of an unreached
	// block: vet is silent. With R9 = 0 and R12 = 0 the load runs and
	// is out of bounds.
	guarded := func(r9 int32, r12 bool) []isa.Instruction {
		in := func(op isa.Op, dst, srcA uint8, imm int32) isa.Instruction {
			return isa.Instruction{Op: op, Dst: dst, SrcA: srcA, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, Imm: imm}
		}
		code := []isa.Instruction{in(isa.OpMovI, 9, isa.NoReg, r9)}
		if r12 {
			code = append(code, in(isa.OpMovI, 12, isa.NoReg, 0))
		}
		setp := in(isa.OpSetP, isa.NoReg, 9, 0)
		setp.Cmp = isa.CmpEQ
		bra := in(isa.OpBra, isa.NoReg, isa.NoReg, 0)
		bra.Pred, bra.Target, bra.Target2 = 0, len(code)+3, len(code)+2
		return append(code, setp, bra, in(isa.OpExit, isa.NoReg, isa.NoReg, 0),
			in(isa.OpLdS, 10, 12, -4), in(isa.OpExit, isa.NoReg, isa.NoReg, 0))
	}
	for _, tc := range []struct {
		name     string
		code     []isa.Instruction
		wantOOB  bool
		wantDead bool
	}{
		{"dead block", guarded(1, false), false, true},
		{"live block", guarded(0, true), true, false},
	} {
		v := &funcVet{name: "k", code: tc.code, isKernel: true, mode: modeBaseline, linked: true}
		v.run()
		if got := hasCheck(v.diags, CheckOOB); got != tc.wantOOB {
			t.Errorf("%s: OOB reported = %v, want %v: %v", tc.name, got, tc.wantOOB, v.diags)
		}
		if got := len(v.summary.rng.deadBranches) == 1 && !v.summary.rng.deadBranches[0].always; got != tc.wantDead {
			t.Errorf("%s: never-taken branch fact = %v, want %v", tc.name, got, tc.wantDead)
		}
	}
}

// TestRangeDevirtIndirect: a CALLI whose selector provably holds one
// MovFuncIdx reference is devirtualizable; a two-candidate Sel under
// an unknown predicate is not.
func TestRangeDevirtIndirect(t *testing.T) {
	f := kir.NewFunc("caller")
	f.MovFuncIdx(13, "target")
	f.Mov(24, 13)
	f.CallIndirect(24, "target", "other")
	f.Ret()
	v := runPreABI(t, f.MustBuild())
	rng := v.summary.rng
	if len(rng.indirect) != 1 {
		t.Fatalf("indirect facts = %v, want one", rng.indirect)
	}
	if rng.indirect[0].target != "target" {
		t.Errorf("devirt target = %q, want %q", rng.indirect[0].target, "target")
	}
	if !hasCheck(v.diags, CheckIndirect) {
		t.Error("no indirect-narrow diagnostic")
	}

	g := kir.NewFunc("caller2")
	g.MovFuncIdx(13, "target")
	g.MovFuncIdx(14, "other")
	g.SetPI(0, isa.CmpLT, 4, 5) // unknown: R4 is an argument
	g.Sel(24, 13, 14, 0)
	g.CallIndirect(24, "target", "other")
	g.Ret()
	v2 := runPreABI(t, g.MustBuild())
	if n := len(v2.summary.rng.indirect); n != 0 {
		t.Errorf("two-candidate selector narrowed (%d facts), want none", n)
	}
}

// TestRangeDevirtConstantSel: when the Sel predicate itself is a
// constant fact, the two-candidate site narrows to the surviving arm.
func TestRangeDevirtConstantSel(t *testing.T) {
	f := kir.NewFunc("caller")
	f.MovI(10, 1)
	f.MovFuncIdx(13, "target")
	f.MovFuncIdx(14, "other")
	f.SetPI(0, isa.CmpEQ, 10, 1) // always true
	f.Sel(24, 13, 14, 0)         // picks R13
	f.CallIndirect(24, "target", "other")
	f.Ret()
	v := runPreABI(t, f.MustBuild())
	rng := v.summary.rng
	if len(rng.indirect) != 1 || rng.indirect[0].target != "target" {
		t.Fatalf("indirect facts = %+v, want one fact for %q", rng.indirect, "target")
	}
}

// TestRangeWideningTerminates: a loop whose induction variable grows
// by a data-dependent step must converge (via widening) and stay
// symbolic, not hang or derive a wrong bound.
func TestRangeWideningTerminates(t *testing.T) {
	k := kir.NewKernel("k")
	k.MovI(16, 0)
	k.For(18, 4, func(b *kir.Builder) {
		b.IAdd(16, 16, 5) // step unknown (R5 is a parameter)
	})
	k.Exit()
	v := runLinked(t, k.MustBuild())
	if n := len(v.summary.rng.trips); n != 0 {
		t.Errorf("derived %d trips from a data-dependent loop, want 0", n)
	}
}

// TestRangePredicatedIncrementBlocksTrip: a guarded increment cannot
// prove forward progress, so no trip bound may be derived.
func TestRangePredicatedIncrementBlocksTrip(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.OpMovI, Dst: 16, SrcA: isa.NoReg, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, Imm: 0},
		{Op: isa.OpSetP, PDst: 0, Dst: isa.NoReg, SrcA: 16, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, Cmp: isa.CmpLT, Imm: 8},
		// Guarded increment: lanes with P1 false make no progress.
		{Op: isa.OpIAdd, Dst: 16, SrcA: 16, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: 1, Imm: 1},
		{Op: isa.OpSetP, PDst: 0, Dst: isa.NoReg, SrcA: 16, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, Cmp: isa.CmpLT, Imm: 8},
		{Op: isa.OpBra, Dst: isa.NoReg, SrcA: isa.NoReg, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: 0, Target: 2, Target2: 5},
		{Op: isa.OpExit, Dst: isa.NoReg, SrcA: isa.NoReg, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred},
	}
	v := &funcVet{name: "k", code: code, isKernel: true, mode: modeBaseline, linked: true}
	v.run()
	if n := len(v.summary.rng.trips); n != 0 {
		t.Errorf("derived %d trips despite a predicated increment, want 0", n)
	}
}

// TestIvalTransfers spot-checks the interval transfer functions against
// the signed-int32 simulator semantics, including wraparound to top.
func TestIvalTransfers(t *testing.T) {
	if got := addIval(ival{1, 2}, ival{10, 20}); got != (ival{11, 22}) {
		t.Errorf("add = %v", got)
	}
	if got := addIval(ival{i32Max, i32Max}, ival{1, 1}); !got.isTop() {
		t.Errorf("overflowing add = %v, want top", got)
	}
	if got := mulIval(ival{-3, 3}, ival{-4, 4}); got != (ival{-12, 12}) {
		t.Errorf("mul = %v", got)
	}
	if got := shrIval(ival{-1, -1}, constIval(1)); got.lo != 0 || got.hi != (int64(1)<<31)-1+(int64(1)<<30) {
		// logical shift of 0xFFFFFFFF by 1 = 0x7FFFFFFF; bound must cover it
		if got.lo > 0x7FFFFFFF || got.hi < 0x7FFFFFFF {
			t.Errorf("logical shr of negative = %v, does not cover 0x7FFFFFFF", got)
		}
	}
	if got := andIval(ival{0, 31}, topIval()); got.lo != 0 || got.hi != 31 {
		t.Errorf("and with nonneg = %v, want [0,31]", got)
	}
	// Refinement: (v < [8,8]) true clamps hi to 7; false clamps lo to 8.
	if got := refine(topIval(), isa.CmpLT, constIval(8), true); got.hi != 7 {
		t.Errorf("refine LT true = %v", got)
	}
	if got := refine(topIval(), isa.CmpLT, constIval(8), false); got.lo != 8 {
		t.Errorf("refine LT false = %v", got)
	}
}
