package vet

import (
	"fmt"
	"strings"

	"carsgo/internal/isa"
)

// Liveness analysis: a backward may-dataflow over architectural
// registers. Where the forward passes ask "is this register certainly
// defined / preserved here?", liveness asks "may this value still be
// consumed on some path?" — the question that bounds how much state a
// call site really needs preserved and which save/restore pairs are
// dead weight.
//
// The calling convention pins the transfer function's boundary cases:
//
//   - args live in R4..R15 and the scalar result returns in R4, so a
//     call conservatively uses the argument range and a device
//     function's exit state is {R4};
//   - a call clobbers the caller-saved range R0..R15, killing their
//     liveness backward;
//   - PUSH/POP are renaming boundaries: the architectural names
//     R16..R16+n-1 bind to different physical slots on each side, so
//     liveness does not flow through them;
//   - a predicated write merges with the old value lane-wise, so the
//     destination stays live (the write is a use as well as a def).

// Argument/return register convention (see internal/kir and the abi
// lowering): parameters are materialized into R4.. and results return
// in R4.
const (
	abiFirstArg = 4
	abiRetReg   = 4
)

// LiveRange summarizes one register's live span inside a function:
// the first and last instruction index at which its value is live-in.
type LiveRange struct {
	Reg   int `json:"reg"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// liveTransfer is the backward transfer function: live-before =
// (live-after minus defs) union uses.
func (v *funcVet) liveTransfer(i int, s *regset) {
	in := &v.code[i]
	switch in.Op {
	case isa.OpPush, isa.OpPop:
		// Renaming boundary: the window names rebind to different
		// physical slots, so liveness does not flow through.
		s.removeRange(isa.FirstCalleeSaved, int(in.Imm))
		return
	case isa.OpCall, isa.OpCallI:
		// The callee clobbers the caller-saved range and may consume
		// the argument registers; callee-saved liveness flows through.
		s.removeRange(0, isa.FirstCalleeSaved)
		for r := abiFirstArg; r < isa.FirstCalleeSaved; r++ {
			s.add(uint8(r))
		}
		if in.Op == isa.OpCallI && in.SrcA != isa.NoReg {
			s.add(in.SrcA)
		}
		return
	}
	if in.WritesReg() {
		if in.Pred == isa.NoPred {
			s.remove(in.Dst)
		} else {
			// A predicated write merges with the old value lane-wise:
			// the old value may survive, so the def is also a use.
			s.add(in.Dst)
		}
	}
	var buf [3]uint8
	for _, r := range in.Reads(buf[:0]) {
		if in.Spill && in.Op.IsStore() && r == in.SrcC {
			continue // prologue save, not a consumption of the value
		}
		s.add(r)
	}
}

// analyzeLiveness runs the backward liveness fixpoint and derives the
// function's live-range summary, peak pressure, and per-call-site
// live-across counts. It fills summary.maxLive, summary.ranges, and
// each reachable call site's live count, and emits the over-wide-PUSH
// diagnostic.
func (v *funcVet) analyzeLiveness() {
	var exit regset
	if !v.isKernel {
		exit.add(abiRetReg)
	}
	outs := v.cfg.backwardMay(exit, v.liveTransfer)

	var first, last [isa.MaxArchRegs]int
	for r := range first {
		first[r] = -1
	}
	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := outs[bi]
		for i := b.end - 1; i >= b.start; i-- {
			if v.code[i].Op.IsCall() {
				// Live-across-call: callee-saved values a liveness-aware
				// lowering would actually need preserved at this site.
				// Under CARS only the renamed window R16..R16+depth-1
				// occupies stack slots; statics above it survive calls
				// for free.
				site := v.summary.site(i)
				hi := isa.MaxArchRegs
				if v.mode == modeCARS {
					hi = isa.FirstCalleeSaved + site.depth
				}
				n := 0
				for r := isa.FirstCalleeSaved; r < hi; r++ {
					if st.has(uint8(r)) {
						n++
					}
				}
				site.live = n
			}
			v.liveTransfer(i, &st)
			if n := st.count(); n > v.summary.maxLive {
				v.summary.maxLive = n
			}
			st.forEach(func(r uint8) {
				if first[r] < 0 || i < first[r] {
					first[r] = i
				}
				if i > last[r] {
					last[r] = i
				}
			})
		}
	}

	for r := 0; r < isa.MaxArchRegs; r++ {
		if first[r] >= 0 {
			v.summary.ranges = append(v.summary.ranges, LiveRange{Reg: r, Start: first[r], End: last[r]})
		}
	}
	v.checkOverWidePush()
}

// checkOverWidePush flags CARS windows wider than the set of window
// registers the function ever touches: each unreferenced slot still
// costs a register-stack slot (and trap-spill bandwidth when the
// circular stack wraps) on every activation.
func (v *funcVet) checkOverWidePush() {
	if v.mode != modeCARS || v.isKernel {
		return
	}
	var referenced [isa.MaxArchRegs]bool
	var buf [3]uint8
	for i := range v.code {
		in := &v.code[i]
		if in.Op == isa.OpPush || in.Op == isa.OpPop {
			continue
		}
		if in.WritesReg() {
			referenced[in.Dst] = true
		}
		for _, r := range in.Reads(buf[:0]) {
			referenced[r] = true
		}
	}
	for i := range v.code {
		in := &v.code[i]
		if in.Op != isa.OpPush {
			continue
		}
		var dead []string
		for k := 0; k < int(in.Imm); k++ {
			if !referenced[isa.FirstCalleeSaved+k] {
				dead = append(dead, fmt.Sprintf("R%d", isa.FirstCalleeSaved+k))
			}
		}
		if len(dead) > 0 {
			v.diag(SevWarning, i, CheckOverPush,
				"PUSH renames %d register-stack slots but %s never referenced: a narrower window would free %d slot(s)",
				in.Imm, verbList(dead), len(dead))
		}
	}
}

// checkDeadWindow is the pre-ABI analog of over-wide-push/dead-save:
// a declared callee-saved register the body never touches costs a
// save/restore pair (baseline/smem) or a stack slot (CARS) in every
// lowered mode.
func (v *funcVet) checkDeadWindow() {
	if v.preABI == nil || v.isKernel || v.calleeSaved == 0 {
		return
	}
	var referenced [isa.MaxArchRegs]bool
	var buf [3]uint8
	for i := range v.code {
		in := &v.code[i]
		if in.WritesReg() {
			referenced[in.Dst] = true
		}
		for _, r := range in.Reads(buf[:0]) {
			referenced[r] = true
		}
	}
	var dead []string
	for k := 0; k < v.calleeSaved && isa.FirstCalleeSaved+k < isa.MaxArchRegs; k++ {
		if !referenced[isa.FirstCalleeSaved+k] {
			dead = append(dead, fmt.Sprintf("R%d", isa.FirstCalleeSaved+k))
		}
	}
	if len(dead) > 0 {
		v.diag(SevWarning, -1, CheckDeadSave,
			"declares CalleeSaved=%d but %s never referenced: every ABI mode pays to preserve the unused window",
			v.calleeSaved, verbList(dead))
	}
}

// verbList renders "R17 is" / "R17 and R18 are" for diagnostics.
func verbList(regs []string) string {
	if len(regs) == 1 {
		return regs[0] + " is"
	}
	return strings.Join(regs[:len(regs)-1], ", ") + " and " + regs[len(regs)-1] + " are"
}

// spillBound records the static spill-traffic bound for the report:
// 4 bytes per spill store, or unbounded (-1) when a spill store sits
// on a CFG cycle and may execute any number of times per activation.
func (v *funcVet) spillBound() {
	stores := 0
	unbounded := false
	for i := range v.code {
		in := &v.code[i]
		if in.Spill && in.Op.IsStore() {
			stores++
			if !unbounded && v.cfg.onCycle(v.cfg.blockOf[i]) {
				unbounded = true
			}
		}
	}
	if unbounded {
		v.summary.spillBytes = -1
		return
	}
	v.summary.spillBytes = 4 * stores
}

// stackDemandTight mirrors stackDemand but charges each call site only
// min(depth, live-across) slots: the demand a liveness-aware lowering
// could reach by narrowing windows to the values actually consumed
// after each call. Advisory — the hardware pushes the full declared
// window, so the architectural bound stays stackDemand.
func stackDemandTight(sums []*funcSummary, root int) int {
	return bottomUp(sums, root, 0, func(fi int) int { return sums[fi].maxDepth }, maxInt,
		func(d int, s *callSite, callee int) int { return max(d, min(s.depth, s.live)+1+callee) })
}
