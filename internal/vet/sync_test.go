package vet_test

import (
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/vet"
)

// hasCheck reports whether any diagnostic of the given check (and at
// least the given severity) is present.
func hasCheck(diags []vet.Diagnostic, check vet.Check, sev vet.Severity) bool {
	for _, d := range diags {
		if d.Check == check && d.Sev >= sev {
			return true
		}
	}
	return false
}

// laneParityPred emits P0 = (laneid & 1) != 0 into the builder.
func laneParityPred(b *kir.Builder) {
	b.S2R(8, isa.SrLaneID).AndI(9, 8, 1).SetPI(0, isa.CmpNE, 9, 0)
}

// TestSyncDivergentBarrier: BAR.SYNC inside a lane-dependent branch is
// the canonical barrier-divergence defect and must be an error, with
// the kernel verdict withdrawn.
func TestSyncDivergentBarrier(t *testing.T) {
	k := kir.NewKernel("main")
	laneParityPred(k)
	k.If(0, func(b *kir.Builder) { b.Bar() }, nil).Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	for _, mode := range abi.Modes {
		rep := vet.Report(link(t, mode, m))
		if !hasCheck(rep.Diags, vet.CheckBarrier, vet.SevError) {
			t.Errorf("%s: no barrier-divergence error: %v", mode, rep.Diags)
		}
		kr := rep.Kernel("main")
		if kr == nil {
			t.Fatalf("%s: no kernel report", mode)
		}
		if kr.BarrierSafe {
			t.Errorf("%s: kernel reported BarrierSafe despite divergent barrier", mode)
		}
	}
}

// TestSyncUniformBarrier: the same shape with a launch-parameter
// predicate is convergent — every thread of the block agrees — and
// must stay clean.
func TestSyncUniformBarrier(t *testing.T) {
	k := kir.NewKernel("main")
	k.AndI(9, 5, 1).SetPI(0, isa.CmpEQ, 9, 0).
		If(0, func(b *kir.Builder) { b.Bar() }, nil).Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	if !vet.Clean(rep.Diags) {
		t.Fatalf("uniform barrier flagged: %v", rep.Diags)
	}
	kr := rep.Kernel("main")
	if kr == nil || !kr.BarrierSafe {
		t.Fatalf("kernel not BarrierSafe: %+v", kr)
	}
	fr := rep.Func("main")
	if fr.Barriers != 1 || fr.DivergentBranches != 0 {
		t.Errorf("func report barriers=%d div=%d, want 1 and 0", fr.Barriers, fr.DivergentBranches)
	}
}

// TestSyncDivergentBranchCounted: divergence without a barrier is not
// an error, but the branch must be counted in the function report.
func TestSyncDivergentBranchCounted(t *testing.T) {
	k := kir.NewKernel("main")
	laneParityPred(k)
	k.If(0, func(b *kir.Builder) { b.MovI(10, 1) }, nil).Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	if !vet.Clean(rep.Diags) {
		t.Fatalf("barrier-free divergence flagged: %v", rep.Diags)
	}
	if fr := rep.Func("main"); fr.DivergentBranches != 1 {
		t.Errorf("DivergentBranches = %d, want 1", fr.DivergentBranches)
	}
}

// TestSyncDivergentExitBarrier: a thread exit under divergent control
// permanently shrinks the warp, so a barrier AFTER the reconvergence
// point still sees a partial warp. The taint must survive the join.
func TestSyncDivergentExitBarrier(t *testing.T) {
	k := kir.NewKernel("main")
	laneParityPred(k)
	k.If(0, func(b *kir.Builder) { b.Exit() }, nil).Bar().Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	if !hasCheck(rep.Diags, vet.CheckBarrier, vet.SevError) {
		t.Fatalf("divergent-exit barrier not flagged: %v", rep.Diags)
	}
}

// loopAtEntry is a kernel whose instruction 0 heads a loop: R16
// accumulates the lane id, so from the second iteration on the SETP at
// the top reads a lane-varying value and the branch around BAR.SYNC
// diverges.
const loopAtEntry = ".kernel k\ntop:\nSETPI.EQ P0, R16, 0\n@P0 BRA skip\nBAR.SYNC\n" +
	"skip:\nS2R R8, SR_LANEID\nIADD R16, R16, R8\nIADDI R17, R17, 1\nSETPI.LT P1, R17, 4\n@P1 BRA top\nEXIT\n"

// TestSyncBackEdgeIntoEntry: the back edge into block 0 joins into its
// in-state like any other edge, so the divergent barrier is found in
// the pre-ABI module too, where no prologue moves the loop header off
// instruction 0.
func TestSyncBackEdgeIntoEntry(t *testing.T) {
	m, err := asm.ParseString(loopAtEntry)
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet.Modules(m); !hasCheck(diags, vet.CheckBarrier, vet.SevError) {
		t.Errorf("pre-ABI: no barrier-divergence error: %v", diags)
	}
	for _, mode := range abi.Modes {
		if rep := vet.Report(link(t, mode, m)); !hasCheck(rep.Diags, vet.CheckBarrier, vet.SevError) {
			t.Errorf("%s: no barrier-divergence error: %v", mode, rep.Diags)
		}
	}
}

// loopThenDiamond runs a uniform loop to R10 = 4, then a diamond on
// the lane parity that leaves R10 alone, then branches around a
// barrier on R10. The first pass through the loop sends R10 = 1 into
// both arms before the loop header joins it to an unknown uniform
// value, so the diamond's join would see both values if it kept every
// edge state it was ever handed.
const loopThenDiamond = ".kernel k\nMOVI R10, 0\nloop:\nIADDI R10, R10, 1\nSETPI.LT P1, R10, 4\n@P1 BRA loop\n" +
	"S2R R8, SR_LANEID\nANDI R9, R8, 1\nSETPI.NE P0, R9, 0\n@P0 BRA odd\nBRA join\nodd:\nMOVI R11, 1\n" +
	"join:\nSETPI.EQ P2, R10, 3\n@P2 BRA skip\nBAR.SYNC\nskip:\nEXIT\n"

// TestSyncStaleEdgeState: a block's in-state is the join of its
// predecessors' current out-states, so R10 is uniform at the diamond's
// divergent join and the barrier is convergent in every mode.
func TestSyncStaleEdgeState(t *testing.T) {
	m, err := asm.ParseString(loopThenDiamond)
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet.Modules(m); hasCheck(diags, vet.CheckBarrier, vet.SevError) {
		t.Errorf("pre-ABI: barrier-divergence error: %v", diags)
	}
	for _, mode := range abi.Modes {
		if rep := vet.Report(link(t, mode, m)); hasCheck(rep.Diags, vet.CheckBarrier, vet.SevError) {
			t.Errorf("%s: barrier-divergence error: %v", mode, rep.Diags)
		}
	}
}

// TestSyncSharedRace: every thread hitting shared word 0 with a store
// and no intervening barrier must be reported with the pair recorded.
func TestSyncSharedRace(t *testing.T) {
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		MovI(9, 0).
		StS(9, 0, 8).
		LdS(10, 9, 0).
		Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	if !hasCheck(rep.Diags, vet.CheckSharedRace, vet.SevWarning) {
		t.Fatalf("same-word shared race not flagged: %v", rep.Diags)
	}
	kr := rep.Kernel("main")
	if kr == nil || kr.RaceFree {
		t.Fatalf("kernel reported RaceFree despite same-word race: %+v", kr)
	}
	if kr.SharedAccesses != 2 || len(kr.RacePairs) == 0 {
		t.Errorf("shared=%d pairs=%v, want 2 accesses and at least one pair", kr.SharedAccesses, kr.RacePairs)
	}
	var kinds []string
	for _, p := range kr.RacePairs {
		kinds = append(kinds, p.Kind)
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "w/w") || !strings.Contains(joined, "r/w") {
		t.Errorf("race pair kinds %q missing w/w or r/w", joined)
	}
}

// TestSyncDisjointShared: per-thread slots (shared[tid]) with a
// barrier between store and reload are provably race-free via the
// affine address abstraction.
func TestSyncDisjointShared(t *testing.T) {
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		AndI(9, 8, isa.MaxBlockThreads-1).
		ShlI(9, 9, 2).
		StS(9, 0, 8).
		Bar().
		LdS(10, 9, 0).
		Exit()
	m := &kir.Module{Name: "m"}
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	if !vet.Clean(rep.Diags) {
		t.Fatalf("disjoint shared access flagged: %v", rep.Diags)
	}
	kr := rep.Kernel("main")
	if kr == nil || !kr.RaceFree || !kr.BarrierSafe {
		t.Fatalf("kernel verdicts wrong: %+v", kr)
	}
}

// TestSyncDeviceSharedUser: a kernel reaching a device function that
// touches user shared memory loses RaceFree — the per-function pass
// cannot pair cross-function accesses.
func TestSyncDeviceSharedUser(t *testing.T) {
	m := &kir.Module{Name: "m"}
	f := kir.NewFunc("touch").SetCalleeSaved(1)
	f.MovI(16, 0).MovI(2, 0).LdS(16, 2, 0).IAdd(4, 16, 16).Ret()
	m.AddFunc(f.MustBuild())
	k := kir.NewKernel("main")
	k.MovI(4, 0).Call("touch").Exit()
	m.AddFunc(k.MustBuild())

	rep := vet.Report(link(t, abi.Baseline, m))
	kr := rep.Kernel("main")
	if kr == nil || kr.RaceFree {
		t.Fatalf("kernel stayed RaceFree across an unanalyzed device shared access: %+v", kr)
	}
	if !hasCheck(rep.Diags, vet.CheckSharedRace, vet.SevWarning) {
		t.Errorf("no cross-function shared warning: %v", rep.Diags)
	}
}

// rawIns builds an instruction with every register operand empty.
func rawIns(op isa.Op) isa.Instruction {
	return isa.Instruction{Op: op, Dst: isa.NoReg, SrcA: isa.NoReg,
		SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, PDst: isa.NoPred}
}

// reconvModule wraps raw code in a pre-ABI kernel for vet.Modules —
// the explicit SSY/SYNC scheme is not produced by the kir builder, so
// the reconvergence tests construct it directly.
func reconvModule(code []isa.Instruction) *kir.Module {
	return &kir.Module{Name: "m", Funcs: []*kir.Func{{
		Name: "main", IsKernel: true, Code: code,
	}}}
}

// TestSyncReconv covers the SSY/SYNC reconvergence-stack checks.
func TestSyncReconv(t *testing.T) {
	// Shared prologue: P0 = (laneid & 1) != 0.
	prologue := func() []isa.Instruction {
		s2r := rawIns(isa.OpS2R)
		s2r.Dst, s2r.Sreg = 8, isa.SrLaneID
		and := rawIns(isa.OpAnd)
		and.Dst, and.SrcA, and.Imm = 9, 8, 1
		setp := rawIns(isa.OpSetP)
		setp.PDst, setp.SrcA, setp.Imm, setp.Cmp = 0, 9, 0, isa.CmpNE
		return []isa.Instruction{s2r, and, setp}
	}
	bra := func(target, reconv int) isa.Instruction {
		in := rawIns(isa.OpBra)
		in.Pred, in.Target, in.Target2 = 0, target, reconv
		return in
	}
	ssy := func(target int) isa.Instruction {
		in := rawIns(isa.OpSSY)
		in.Target2 = target
		return in
	}

	t.Run("well-formed", func(t *testing.T) {
		// 0-2 prologue; 3 SSY→7; 4 @P0 BRA→6; 5 NOP; 6 SYNC; 7 EXIT
		code := append(prologue(),
			ssy(7), bra(6, 7), rawIns(isa.OpNop), rawIns(isa.OpSync), rawIns(isa.OpExit))
		diags := vet.Modules(reconvModule(code))
		if hasCheck(diags, vet.CheckReconv, vet.SevError) {
			t.Fatalf("well-formed SSY/SYNC flagged: %v", diags)
		}
	})

	t.Run("sync without ssy", func(t *testing.T) {
		code := append(prologue(), rawIns(isa.OpSync), rawIns(isa.OpExit))
		diags := vet.Modules(reconvModule(code))
		if !hasCheck(diags, vet.CheckReconv, vet.SevError) {
			t.Fatalf("orphan SYNC not flagged: %v", diags)
		}
	})

	t.Run("exit with open region", func(t *testing.T) {
		code := append(prologue(), ssy(5), rawIns(isa.OpNop), rawIns(isa.OpExit))
		diags := vet.Modules(reconvModule(code))
		if !hasCheck(diags, vet.CheckReconv, vet.SevError) {
			t.Fatalf("open SSY region at EXIT not flagged: %v", diags)
		}
	})

	t.Run("divergent branch outside region", func(t *testing.T) {
		// SSY present in the function (so the scheme applies) but the
		// divergent branch sits after its region closed.
		code := append(prologue(),
			ssy(5), rawIns(isa.OpSync), bra(7, 7), rawIns(isa.OpNop), rawIns(isa.OpExit))
		diags := vet.Modules(reconvModule(code))
		if !hasCheck(diags, vet.CheckReconv, vet.SevError) {
			t.Fatalf("unprotected divergent branch not flagged: %v", diags)
		}
	})
}

// TestSyncSpillPointerHygiene: under the shared-spill ABI, writes to
// R0 outside the lowering's own SP adjustment are flagged.
func TestSyncSpillPointerHygiene(t *testing.T) {
	mov := rawIns(isa.OpMovI)
	mov.Dst, mov.Imm = 0, 64
	p := &isa.Program{
		Funcs: []*isa.Function{{
			Name: "main", IsKernel: true,
			Code: []isa.Instruction{mov, rawIns(isa.OpExit)},
		}},
		Kernels:            map[string]int{"main": 0},
		SmemSpillPerThread: 8,
	}
	rep := vet.Report(p)
	if !hasCheck(rep.Diags, vet.CheckModeMismatch, vet.SevWarning) {
		t.Fatalf("R0 clobber under shared-spill not flagged: %v", rep.Diags)
	}
}
