package vet

import (
	"fmt"

	"carsgo/internal/isa"
)

// Sync analysis: a forward uniformity/divergence dataflow in the
// GPUVerify tradition (see DESIGN.md §8). Every register is abstracted
// as an affine expression of the lane and warp indices where possible
// (the address language of the shared-memory race check in race.go),
// as "block-uniform with unknown value" when all inputs are uniform,
// or as top. Predicates inherit uniformity from their SETP operands,
// which classifies every predicated branch as uniform or potentially
// divergent. Barrier legality then falls out of control dependence:
// BAR.SYNC in a block control-dependent (transitively) on a divergent
// branch — or a call that transitively executes one — means lanes of
// one warp may not all arrive, and is an error. The same machinery
// verifies SSY/SYNC reconvergence-stack well-formedness for functions
// that use the explicit scheme.
//
// "Uniform" throughout means: equal across every active thread of the
// BLOCK, not just the warp — BAR.SYNC synchronizes the block, and a
// warp-index-dependent branch sends whole warps down different paths
// to different barriers.

// ---------------------------------------------------------------
// Abstract value domain
// ---------------------------------------------------------------

const (
	avTop     uint8 = iota // varying, unknown
	avUniform              // block-uniform, value unknown
	avAffine               // base(sym) + c0 + cL*lane + cW*warp
)

// Symbolic bases for avAffine. Only launch-invariant quantities get a
// symbol: equality of symbols is used to claim equality of base
// values, which would be unsound for anything that can change between
// two evaluations of the same instruction.
const (
	symNone   int32 = -1 // no base: a pure number
	symSpill  int32 = -2 // shared-spill segment base (launch SharedBytes)
	symCTAID  int32 = -3
	symNTID   int32 = -4
	symNCTAID int32 = -5
	// Entry value of register r (kernel parameters): symEntry - r.
	symEntry int32 = -100
)

// aval is an abstract register value. For avAffine the concrete value
// is base(sym) + c0 + cL*lane + cW*warpInBlock, with lane in [0,32)
// and warpInBlock in [0, MaxBlockThreads/WarpSize).
type aval struct {
	kind       uint8
	sym        int32
	c0, cL, cW int64
}

func topVal() aval          { return aval{kind: avTop} }
func uniformVal() aval      { return aval{kind: avUniform} }
func constVal(c int64) aval { return aval{kind: avAffine, sym: symNone, c0: c} }
func symVal(sym int32) aval { return aval{kind: avAffine, sym: sym} }

// uniform reports whether the value is provably equal across all
// threads of the block.
func (v aval) uniform() bool {
	return v.kind == avUniform || (v.kind == avAffine && v.cL == 0 && v.cW == 0)
}

// isConst reports a pure compile-time number and returns it.
func (v aval) isConst() (int64, bool) {
	if v.kind == avAffine && v.sym == symNone && v.cL == 0 && v.cW == 0 {
		return v.c0, true
	}
	return 0, false
}

// coeffLimit keeps affine coefficients far from the 2^32 wrap, where
// modular arithmetic would invalidate the int64 range reasoning.
const coeffLimit = int64(1) << 31

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// norm degrades an affine value whose coefficients left the safe range.
func norm(v aval) aval {
	if v.kind != avAffine {
		return v
	}
	if abs64(v.c0) >= coeffLimit || abs64(v.cL) >= coeffLimit || abs64(v.cW) >= coeffLimit {
		if v.cL == 0 && v.cW == 0 {
			return uniformVal()
		}
		return topVal()
	}
	return v
}

// degrade is the fallback transfer for ops with no affine rule.
func degrade(ops ...aval) aval {
	for _, v := range ops {
		if !v.uniform() {
			return topVal()
		}
	}
	return uniformVal()
}

func addVal(a, b aval) aval {
	if a.kind == avAffine && b.kind == avAffine {
		switch {
		case b.sym == symNone:
			return norm(aval{avAffine, a.sym, a.c0 + b.c0, a.cL + b.cL, a.cW + b.cW})
		case a.sym == symNone:
			return norm(aval{avAffine, b.sym, a.c0 + b.c0, a.cL + b.cL, a.cW + b.cW})
		}
	}
	return degrade(a, b)
}

func subVal(a, b aval) aval {
	if a.kind == avAffine && b.kind == avAffine {
		switch {
		case b.sym == symNone:
			return norm(aval{avAffine, a.sym, a.c0 - b.c0, a.cL - b.cL, a.cW - b.cW})
		case a.sym == b.sym: // equal bases cancel
			return norm(aval{avAffine, symNone, a.c0 - b.c0, a.cL - b.cL, a.cW - b.cW})
		}
	}
	return degrade(a, b)
}

func mulVal(a, b aval) aval {
	if k, ok := a.isConst(); ok {
		if b.kind == avAffine && b.sym == symNone {
			return norm(aval{avAffine, symNone, b.c0 * k, b.cL * k, b.cW * k})
		}
	}
	if k, ok := b.isConst(); ok {
		if a.kind == avAffine && a.sym == symNone {
			return norm(aval{avAffine, symNone, a.c0 * k, a.cL * k, a.cW * k})
		}
	}
	return degrade(a, b)
}

// rangeOf bounds a base-free affine value over all lanes and warps.
func rangeOf(v aval) (lo, hi int64) {
	lo, hi = v.c0, v.c0
	maxLane := int64(isa.WarpSize - 1)
	maxWarp := int64(isa.MaxBlockThreads/isa.WarpSize - 1)
	if v.cL >= 0 {
		hi += v.cL * maxLane
	} else {
		lo += v.cL * maxLane
	}
	if v.cW >= 0 {
		hi += v.cW * maxWarp
	} else {
		lo += v.cW * maxWarp
	}
	return lo, hi
}

// andVal handles AND with a constant mask: when the mask is a low-bit
// mask that provably covers the operand's range, the AND is the
// identity and the affine form survives (the workload corpus masks
// thread indices with smemWords-1 where smemWords >= MaxBlockThreads).
func andVal(a, b aval) aval {
	m, ok := b.isConst()
	if ok && a.kind == avAffine && a.sym == symNone && m >= 0 && (m+1)&m == 0 {
		if lo, hi := rangeOf(a); lo >= 0 && hi <= m {
			return a
		}
	}
	return degrade(a, b)
}

func shlVal(a, b aval) aval {
	if k, ok := b.isConst(); ok {
		k &= 31
		if a.kind == avAffine && a.sym == symNone && k < 31 {
			return mulVal(a, constVal(int64(1)<<uint(k)))
		}
	}
	return degrade(a, b)
}

// joinVal merges two path values. At a join of a DIVERGENT branch,
// different threads arrive from different paths, so two values that
// are merely uniform-per-path need not agree across threads: the join
// demotes to top unless the values are identical.
func joinVal(a, b aval, div bool) aval {
	if a == b {
		return a
	}
	if !div && a.uniform() && b.uniform() {
		return uniformVal()
	}
	return topVal()
}

// pval is the abstract state of one predicate register.
type pval struct {
	uniform bool
	def     int32 // defining instruction, -1 after a join or clobber
}

func joinPred(a, b pval, div bool) pval {
	if a == b {
		return a
	}
	return pval{uniform: a.uniform && b.uniform && !div, def: -1}
}

// uState is the abstract machine state: one aval per register of the
// function's window and one pval per predicate (solve.go).
type uState = winState[aval, pval]

// joinState joins o into dst.
func joinState(dst, o *uState, div bool) {
	oregs := o.regs[:len(dst.regs)]
	for r, v := range dst.regs {
		dst.regs[r] = joinVal(v, oregs[r], div)
	}
	dst.rest = joinVal(dst.rest, o.rest, div)
	for p := range dst.preds {
		dst.preds[p] = joinPred(dst.preds[p], o.preds[p], div)
	}
}

// ---------------------------------------------------------------
// Program model
// ---------------------------------------------------------------

// syncSummary is the interprocedural summary the fixpoint converges.
type syncSummary struct {
	analyzed   bool
	hasBarrier bool // function or any callee executes BAR.SYNC
	sharedUser bool // non-spill LDS/STS in the function itself
	retUniform bool // R4 at RET is uniform given uniform arguments
}

// shSite is one user (non-spill) shared-memory access with the
// abstract byte address (immediate offset folded in).
type shSite struct {
	index int
	store bool
	addr  aval
}

// txSite is one shared-memory access — ABI spill traffic included —
// with its abstract byte address. The backend pass (backend.go) turns
// the per-lane address stride into a static bank-conflict multiplier.
type txSite struct {
	index int
	spill bool
	addr  aval
}

// syncFunc is one function under the sync pass: the funcVet that
// already ran supplies its CFG, register window (each state holds
// that many registers) and call-site table.
type syncFunc struct {
	*funcVet

	sum syncSummary
	// seen is the step of the summary loop that last analysed the
	// function, and moved the step after which its summary last
	// changed.
	seen, moved int

	// Final-pass results.
	divBranch []bool // per instruction: predicated BRA, varying predicate
	tainted   []bool // per block: executes under divergent control
	shared    []shSite
	txs       []txSite
	pairs     []RacePair
	barriers  int
	divCount  int
}

// syncProgram is also the uniformity lattice the solver runs over one
// function at a time (solve.go): f is that function, and divJoin marks
// the blocks where its paths join divergently. The divergent join is
// not monotone (two equal values join to themselves, two different
// uniform ones to top), so a block's in-state is rebuilt from its
// predecessors' current out-states when it is solved instead of
// accumulating every edge state: a stale early one would pin it to
// top. out holds each block's out-state, done marks the blocks that
// have one, and moved says whether the last one recorded changed.
type syncProgram struct {
	mode   progMode
	spill  int // shared-spill bytes per thread (modeSmem)
	linked bool
	funcs  []*syncFunc
	diags  []Diagnostic

	arena   *arena
	f       *syncFunc
	divJoin []bool
	out     []uState
	done    []bool
	moved   bool
}

func (sp *syncProgram) diag(f *syncFunc, sev Severity, idx int, check Check, format string, args ...any) {
	sp.diags = append(sp.diags, Diagnostic{
		Sev: sev, Func: f.name, Index: idx, Check: check,
		Msg: fmt.Sprintf(format, args...),
	})
}

// newSyncProgram models the functions vet has run (Report: a linked
// program's; Modules: a pre-ABI module set's, with call sites
// resolved across the set). spill is the shared-spill frame per
// thread of a linked shared-spill program; a is the arena the
// functions were vetted with.
func newSyncProgram(vets []*funcVet, mode progMode, spill int, linked bool, a *arena) *syncProgram {
	sp := &syncProgram{mode: mode, spill: spill, linked: linked, arena: a}
	for _, v := range vets {
		sp.funcs = append(sp.funcs, &syncFunc{funcVet: v})
	}
	return sp
}

// run converges the interprocedural summaries, then makes a final
// diagnostic pass per function.
func (sp *syncProgram) run() {
	for _, f := range sp.funcs {
		if f.cfg != nil { // no code: structure error reported elsewhere
			f.sum = syncSummary{analyzed: true, retUniform: true}
		}
	}
	// Optimistic start, monotone decay: retUniform only falls,
	// hasBarrier/sharedUser only rise. Passes are bounded by the
	// deepest call chain; the cap is a safety net for fuzz inputs.
	// A function's summary depends only on its code and its callees'
	// summaries, so after the first pass a function is analysed again
	// only when one of theirs moved since its last analysis (a
	// recursive function is its own callee).
	step := 0
	for pass := 0; pass < 64; pass++ {
		changed := false
		for _, f := range sp.funcs {
			if !f.sum.analyzed || pass > 0 && !sp.calleeMoved(f) {
				continue
			}
			f.seen = step
			step++
			if next := sp.analyzeFunc(f, false); next != f.sum {
				f.sum, f.moved = next, step
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, f := range sp.funcs {
		if f.sum.analyzed {
			sp.analyzeFunc(f, true)
		}
	}
}

// calleeMoved reports whether the summary of one of f's callees changed
// since f was last analysed.
func (sp *syncProgram) calleeMoved(f *syncFunc) bool {
	for _, site := range f.summary.sites {
		for _, ti := range site.callees {
			if sp.funcs[ti].moved > f.seen {
				return true
			}
		}
	}
	return false
}

// entry writes the architectural state at the entry of sp.f into st.
func (sp *syncProgram) entry(st *uState) {
	f := sp.f
	for r := range st.regs {
		st.regs[r] = topVal()
	}
	st.rest = topVal()
	if f.isKernel {
		// R0..R3 are ABI state; R4..R15 carry launch parameters, which
		// are block-uniform by construction; callee-saved registers
		// start zeroed.
		for r := 0; r < 4; r++ {
			st.regs[r] = uniformVal()
		}
		for r := 4; r < isa.FirstCalleeSaved; r++ {
			st.regs[r] = symVal(symEntry - int32(r))
		}
		for r := isa.FirstCalleeSaved; r < len(st.regs); r++ {
			st.regs[r] = constVal(0)
		}
		st.rest = constVal(0)
		switch {
		case sp.linked && sp.mode == modeSmem:
			// loadParams: R0 = SharedBytes + (tid+1)*spill, the
			// per-thread shared-spill stack pointer.
			s := int64(sp.spill)
			st.regs[0] = norm(aval{avAffine, symSpill, s, s, s * int64(isa.WarpSize)})
		case sp.linked:
			st.regs[0] = constVal(0)
		default:
			// Pre-ABI: conclusions must survive every lowering, and the
			// shared-spill mode turns R0 into a thread-varying pointer.
			st.regs[0] = topVal()
		}
	} else {
		// Device function: arguments R4..R7 are uniform by assumption
		// (callers with varying arguments invalidate retUniform at the
		// call site); scratch and callee-saved contents are the
		// caller's, hence unknown and possibly varying.
		for r := 4; r < 8; r++ {
			st.regs[r] = symVal(symEntry - int32(r))
		}
	}
	for p := range st.preds {
		st.preds[p] = pval{uniform: false, def: -1}
	}
	if f.isKernel {
		// Predicates start as zero on every lane.
		for p := range st.preds {
			st.preds[p] = pval{uniform: true, def: -1}
		}
	}
}

// operand helpers ------------------------------------------------

func (sp *syncProgram) srcB(st *uState, in *isa.Instruction) aval {
	if in.SrcB == isa.NoReg {
		return constVal(int64(in.Imm))
	}
	return st.regs[in.SrcB]
}

func regOr(st *uState, r uint8, def aval) aval {
	if r == isa.NoReg {
		return def
	}
	return st.regs[r]
}

func (sp *syncProgram) set(dst, src *uState) { dst.set(src) }

// transfer applies instructions from up to to-1 of sp.f to st.
func (sp *syncProgram) transfer(st *uState, from, to int) {
	for i := from; i < to; i++ {
		sp.step(st, i)
	}
}

// step applies instruction i of sp.f to the abstract state.
func (sp *syncProgram) step(st *uState, i int) {
	f := sp.f
	in := &f.code[i]
	guarded := in.Pred != isa.NoPred && in.Op != isa.OpSel && in.Op != isa.OpBra
	guardU := true
	if guarded {
		guardU = st.preds[in.Pred&7].uniform
	}
	setReg := func(r uint8, v aval) {
		if r == isa.NoReg {
			return
		}
		if guarded {
			old := st.regs[r]
			switch {
			case old == v:
			case guardU && old.uniform() && v.uniform():
				st.regs[r] = uniformVal()
			default:
				st.regs[r] = topVal()
			}
			return
		}
		st.regs[r] = v
	}

	switch in.Op {
	case isa.OpMovI:
		setReg(in.Dst, constVal(int64(in.Imm)))
	case isa.OpMov:
		setReg(in.Dst, regOr(st, in.SrcA, topVal()))
	case isa.OpS2R:
		var v aval
		switch in.Sreg {
		case isa.SrLaneID:
			v = aval{avAffine, symNone, 0, 1, 0}
		case isa.SrTID:
			v = aval{avAffine, symNone, 0, 1, int64(isa.WarpSize)}
		case isa.SrWarpID:
			v = aval{avAffine, symNone, 0, 0, 1}
		case isa.SrCTAID:
			v = symVal(symCTAID)
		case isa.SrNTID:
			v = symVal(symNTID)
		case isa.SrNCTAID:
			v = symVal(symNCTAID)
		default:
			v = topVal()
		}
		setReg(in.Dst, v)
	case isa.OpIAdd:
		setReg(in.Dst, addVal(st.reg(in.SrcA), sp.srcB(st, in)))
	case isa.OpISub:
		setReg(in.Dst, subVal(st.reg(in.SrcA), sp.srcB(st, in)))
	case isa.OpIMul:
		setReg(in.Dst, mulVal(st.reg(in.SrcA), sp.srcB(st, in)))
	case isa.OpIMad:
		setReg(in.Dst, addVal(mulVal(st.reg(in.SrcA), sp.srcB(st, in)), regOr(st, in.SrcC, constVal(0))))
	case isa.OpAnd:
		setReg(in.Dst, andVal(st.reg(in.SrcA), sp.srcB(st, in)))
	case isa.OpShl:
		setReg(in.Dst, shlVal(st.reg(in.SrcA), sp.srcB(st, in)))
	case isa.OpShr, isa.OpOr, isa.OpXor, isa.OpIMin, isa.OpIMax,
		isa.OpFAdd, isa.OpFMul, isa.OpFFma, isa.OpFRcp, isa.OpFSqr:
		setReg(in.Dst, degrade(st.reg(in.SrcA), sp.srcB(st, in), regOr(st, in.SrcC, uniformVal())))
	case isa.OpSel:
		a, b := st.reg(in.SrcA), st.reg(in.SrcB)
		switch {
		case a == b:
			setReg(in.Dst, a)
		case st.preds[in.Pred&7].uniform && a.uniform() && b.uniform():
			setReg(in.Dst, uniformVal())
		default:
			setReg(in.Dst, topVal())
		}
	case isa.OpLdG, isa.OpLdL, isa.OpLdS:
		setReg(in.Dst, topVal())
	case isa.OpSetP:
		u := st.reg(in.SrcA).uniform() && sp.srcB(st, in).uniform()
		nv := pval{uniform: u, def: int32(i)}
		pd := in.PDst & 7
		if guarded {
			old := st.preds[pd]
			if old != nv {
				st.preds[pd] = pval{uniform: guardU && old.uniform && u, def: -1}
			}
		} else {
			st.preds[pd] = nv
		}
	case isa.OpCall, isa.OpCallI:
		sp.applyCall(st, i)
	case isa.OpPush, isa.OpPop:
		n := int(in.Imm)
		for k := 0; k < n && isa.FirstCalleeSaved+k < len(st.regs); k++ {
			st.regs[isa.FirstCalleeSaved+k] = topVal()
		}
	default:
		// Stores, control flow, barriers, NOP, PUSHRFP: no register
		// effects. Unknown future ops conservatively clobber Dst.
		if in.WritesReg() {
			setReg(in.Dst, topVal())
		}
	}
}

// applyCall models the ABI effects of a call: scratch registers are
// clobbered, callee-saved registers and (in shared-spill mode) the
// spill stack pointer are preserved, R4 carries the return value, and
// every predicate is caller-clobbered.
func (sp *syncProgram) applyCall(st *uState, i int) {
	site := sp.f.summary.site(i)
	retU := !site.unresolved
	for _, ti := range site.callees {
		if !sp.funcs[ti].sum.analyzed || !sp.funcs[ti].sum.retUniform {
			retU = false
		}
	}
	argsU := st.regs[4].uniform() && st.regs[5].uniform() &&
		st.regs[6].uniform() && st.regs[7].uniform()
	lo := 0
	if sp.mode == modeSmem {
		lo = 1 // R0 is the spill SP: net-zero across any call
	}
	for r := lo; r < isa.FirstCalleeSaved; r++ {
		st.regs[r] = topVal()
	}
	if retU && argsU {
		st.regs[4] = uniformVal()
	}
	for p := range st.preds {
		st.preds[p] = pval{uniform: false, def: -1}
	}
}

// load rebuilds block bi's in-state as the join of the current
// out-states of its predecessors that have one, and of the entry state
// for block 0, divergently where divJoin marks the block, and starts st
// from it.
func (sp *syncProgram) load(st, in *uState, bi int) {
	first := bi != 0
	if !first {
		sp.entry(in)
	}
	for _, p := range sp.f.cfg.blocks[bi].preds {
		switch {
		case !sp.done[p]:
		case first:
			in.set(&sp.out[p])
			first = false
		default:
			joinState(in, &sp.out[p], sp.divJoin[bi])
		}
	}
	st.set(in)
}

// edges records st as block bi's out-state and fans it out unchanged:
// the uniformity pass refines no edge.
func (sp *syncProgram) edges(bi int, st *uState) [2]*uState {
	out := &sp.out[bi]
	sp.moved = !sp.done[bi] || !st.equal(out)
	if sp.moved {
		out.set(st)
		sp.done[bi] = true
	}
	return [2]*uState{out, out}
}

// join leaves the in-state to load, which rebuilds it, and has block
// to solved again when the out-state along the edge changed.
func (sp *syncProgram) join(_, _ *uState, _ int) bool { return sp.moved }

// converge runs the uniformity dataflow over f to fixpoint given its
// current divergent-branch classification.
func (sp *syncProgram) converge(f *syncFunc) solver[uState] {
	nb := len(f.cfg.blocks)
	// The solver's nb+1 states, then an out-state per block.
	states := sp.arena.affine.windows(2*nb+1, f.window, nil)
	sp.f, sp.divJoin = f, divJoins(f.cfg, f.divBranch)
	sp.out = states[nb+1:]
	sp.done = reuse(&sp.arena.done, nb)
	return solve[uState](sp.arena, f.cfg, sp, states[:nb+1])
}

// divJoins marks blocks reachable from BOTH successors of any
// divergent branch: the joins where per-path uniformity breaks.
func divJoins(c *cfg, divBranch []bool) []bool {
	nb := len(c.blocks)
	join := make([]bool, nb)
	reachFrom := func(start int) []bool {
		seen := make([]bool, nb)
		work := []int{start}
		seen[start] = true
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			for _, s := range c.blocks[bi].succs {
				if !seen[s] {
					seen[s] = true
					work = append(work, s)
				}
			}
		}
		return seen
	}
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if b.end == 0 || !c.reach[bi] || !divBranch[b.end-1] || len(b.succs) < 2 {
			continue
		}
		r0 := reachFrom(b.succs[0])
		r1 := reachFrom(b.succs[1])
		for x := 0; x < nb; x++ {
			if r0[x] && r1[x] {
				join[x] = true
			}
		}
	}
	return join
}

// classify iterates the dataflow and the divergent-branch set to a
// joint fixpoint: divergence can only grow, so it terminates. A BRA
// ends its block and leaves the predicates alone, so a block's
// out-state holds the predicate its branch reads; a block the fixpoint
// never solved (only when the visit bound stops it) has none.
func (sp *syncProgram) classify(f *syncFunc) solver[uState] {
	f.divBranch = make([]bool, len(f.code))
	for round := 0; round <= len(f.code)+1; round++ {
		sv := sp.converge(f)
		changed := false
		for bi, b := range f.cfg.blocks {
			i := b.end - 1
			ins := &f.code[i]
			if sp.done[bi] && ins.Op == isa.OpBra && ins.Pred != isa.NoPred && !f.divBranch[i] &&
				!sp.out[bi].preds[ins.Pred&7].uniform {
				f.divBranch[i] = true
				changed = true
			}
		}
		if !changed {
			return sv
		}
	}
	return sp.converge(f)
}

// analyzeFunc runs the whole per-function analysis. With final=false
// it only derives the summary candidate; with final=true it emits
// diagnostics and records sites for the race analysis.
func (sp *syncProgram) analyzeFunc(f *syncFunc, final bool) syncSummary {
	sv := sp.classify(f)
	sum := syncSummary{analyzed: true, retUniform: true}
	if final {
		f.shared, f.txs = f.shared[:0], f.txs[:0]
		f.barriers, f.divCount = 0, 0
	}

	var divExit bool
	sv.replay(func(i int, st *uState) {
		ins := &f.code[i]
		switch ins.Op {
		case isa.OpBar:
			sum.hasBarrier = true
			if final {
				f.barriers++
			}
		case isa.OpLdS, isa.OpStS:
			if final {
				addr := addVal(regOr(st, ins.SrcA, topVal()), constVal(int64(ins.Imm)))
				f.txs = append(f.txs, txSite{index: i, spill: ins.Spill, addr: addr})
				if !ins.Spill {
					f.shared = append(f.shared, shSite{index: i, store: ins.Op == isa.OpStS, addr: addr})
				}
			}
			if !ins.Spill {
				sum.sharedUser = true
			}
		case isa.OpRet:
			if !st.regs[4].uniform() {
				sum.retUniform = false
			}
		case isa.OpCall, isa.OpCallI:
			for _, ti := range f.summary.site(i).callees {
				if sp.funcs[ti].sum.hasBarrier {
					sum.hasBarrier = true
				}
			}
		case isa.OpExit:
			if ins.Pred != isa.NoPred && !st.preds[ins.Pred&7].uniform {
				divExit = true
			}
		}
		if final && ins.Op == isa.OpBra && ins.Pred != isa.NoPred && f.divBranch[i] {
			f.divCount++
		}
	})

	if !final {
		return sum
	}

	// Control-dependence taint: which blocks execute under divergence.
	f.tainted = divTaint(f.cfg, f.divBranch)
	// A thread exit under divergent control permanently shrinks the
	// warp's mask: everything that executes afterwards is divergent.
	// (Reconvergence never collects exited lanes back.)
	for bi := range f.cfg.blocks {
		if !f.cfg.reach[bi] || divExit {
			continue
		}
		b := &f.cfg.blocks[bi]
		if !f.tainted[bi] {
			continue
		}
		for i := b.start; i < b.end; i++ {
			if f.code[i].Op == isa.OpExit {
				divExit = true
			}
		}
	}
	if divExit {
		for bi := range f.tainted {
			if f.cfg.reach[bi] {
				f.tainted[bi] = true
			}
		}
	}

	// Barrier legality.
	for bi := range f.cfg.blocks {
		if !f.cfg.reach[bi] {
			continue
		}
		b := &f.cfg.blocks[bi]
		for i := b.start; i < b.end; i++ {
			ins := &f.code[i]
			if ins.Op == isa.OpBar {
				if ins.Pred != isa.NoPred {
					sp.diag(f, SevError, i, CheckBarrier,
						"BAR.SYNC carries a guard predicate: predicated-off lanes skip the barrier")
				}
				if f.tainted[bi] {
					sp.diag(f, SevError, i, CheckBarrier,
						"BAR.SYNC under divergent control flow: threads of the block may not all arrive")
				}
			}
		}
	}
	for _, site := range f.summary.sites {
		if !site.reachable || !f.tainted[f.cfg.blockOf[site.index]] {
			continue
		}
		for _, ti := range site.callees {
			if sp.funcs[ti].sum.hasBarrier {
				sp.diag(f, SevError, site.index, CheckBarrier,
					"call to %s under divergent control flow executes BAR.SYNC with a partial warp",
					sp.funcs[ti].name)
				break
			}
		}
	}

	sp.checkReconv(f)
	return sum
}

// divTaint computes, per block, whether it executes under divergent
// control: control-dependent (transitively) on a divergent branch.
// Control dependence is the classic postdominator formulation with a
// virtual exit collecting RET/EXIT/past-end blocks.
func divTaint(c *cfg, divBranch []bool) []bool {
	nb := len(c.blocks)
	tainted := make([]bool, nb)
	if nb == 0 {
		return tainted
	}
	exit := nb // virtual exit node
	words := (nb + 1 + 63) / 64
	pdom := make([][]uint64, nb+1)
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	for n := 0; n <= nb; n++ {
		pdom[n] = make([]uint64, words)
		copy(pdom[n], full)
	}
	for i := range pdom[exit] {
		pdom[exit][i] = 0
	}
	pdom[exit][exit/64] = 1 << (uint(exit) % 64)

	succsOf := func(bi int) []int {
		b := &c.blocks[bi]
		if len(b.succs) == 0 || b.pastEnd {
			return append(append([]int(nil), b.succs...), exit)
		}
		last := &c.code[b.end-1]
		if last.Op == isa.OpRet || last.Op == isa.OpExit {
			return []int{exit}
		}
		return b.succs
	}

	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			if !c.reach[bi] {
				continue
			}
			nw := make([]uint64, words)
			copy(nw, full)
			for _, s := range succsOf(bi) {
				for w := range nw {
					nw[w] &= pdom[s][w]
				}
			}
			nw[bi/64] |= 1 << (uint(bi) % 64)
			for w := range nw {
				if nw[w] != pdom[bi][w] {
					changed = true
				}
			}
			pdom[bi] = nw
		}
	}
	has := func(set []uint64, n int) bool { return set[n/64]&(1<<(uint(n)%64)) != 0 }

	// ctrlDep[B][A]: B is control-dependent on branch block A.
	branchBlocks := []int{}
	for bi := range c.blocks {
		if c.reach[bi] && len(c.blocks[bi].succs) >= 2 {
			branchBlocks = append(branchBlocks, bi)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range branchBlocks {
			b := &c.blocks[a]
			srcDiv := tainted[a] || (b.end > 0 && divBranch[b.end-1])
			if !srcDiv {
				continue
			}
			for bi := 0; bi < nb; bi++ {
				if tainted[bi] || !c.reach[bi] {
					continue
				}
				// bi must postdominate some successor of a without
				// strictly postdominating a itself.
				if bi != a && has(pdom[a], bi) {
					continue
				}
				dep := false
				for _, s := range b.succs {
					if has(pdom[s], bi) {
						dep = true
						break
					}
				}
				if dep {
					tainted[bi] = true
					changed = true
				}
			}
		}
	}
	return tainted
}

// checkReconv verifies SSY/SYNC reconvergence-stack well-formedness
// for functions using the explicit scheme: every path balances its
// pushes and pops, joins agree on the open region stack, control does
// not fall through a SYNC to anywhere but the recorded reconvergence
// point, and divergent branches have an enclosing SSY region.
// Functions without SSY/SYNC use the builder's Target2 scheme and are
// exempt.
func (sp *syncProgram) checkReconv(f *syncFunc) {
	uses := false
	for i := range f.code {
		if f.code[i].Op == isa.OpSSY || f.code[i].Op == isa.OpSync {
			uses = true
			break
		}
	}
	if !uses {
		return
	}
	const maxDepth = 64
	c := f.cfg
	nb := len(c.blocks)
	inStack := make([][]int, nb)
	have := make([]bool, nb)
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	work := []int{0}
	have[0] = true
	inStack[0] = []int{}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := &c.blocks[bi]
		stack := append([]int(nil), inStack[bi]...)
		broken := false
		for i := b.start; i < b.end && !broken; i++ {
			ins := &f.code[i]
			switch ins.Op {
			case isa.OpSSY:
				if len(stack) >= maxDepth {
					sp.diag(f, SevError, i, CheckReconv,
						"SSY nesting exceeds %d open regions on a path (unbounded push in a loop?)", maxDepth)
					broken = true
					break
				}
				stack = append(stack, ins.Target2)
			case isa.OpSync:
				if len(stack) == 0 {
					sp.diag(f, SevError, i, CheckReconv, "SYNC with no open SSY region on this path")
					broken = true
					break
				}
				t := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if i+1 != t {
					sp.diag(f, SevError, i, CheckReconv,
						"control falls through SYNC to %d but the open SSY region reconverges at %d", i+1, t)
				}
			case isa.OpBra:
				if ins.Pred != isa.NoPred && f.divBranch[i] && len(stack) == 0 {
					sp.diag(f, SevError, i, CheckReconv,
						"divergent branch with no enclosing SSY region")
				}
			case isa.OpRet, isa.OpExit:
				if len(stack) != 0 {
					sp.diag(f, SevError, i, CheckReconv,
						"%s with %d SSY region(s) still open", ins.Op, len(stack))
				}
			}
		}
		if broken {
			continue
		}
		for _, s := range b.succs {
			if !have[s] {
				have[s] = true
				inStack[s] = stack
				work = append(work, s)
			} else if !equal(inStack[s], stack) {
				sp.diag(f, SevError, c.blocks[s].start, CheckReconv,
					"inconsistent SSY reconvergence stack at join: %v vs %v along different paths",
					inStack[s], stack)
			}
		}
	}
}
