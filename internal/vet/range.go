package vet

import (
	"fmt"
	"sort"

	"carsgo/internal/isa"
)

// Value-range and trip-count abstract interpretation (DESIGN.md §14):
// an interval lattice layered under the sync pass's affine lattice.
// Each architectural register carries a signed-int32 interval [lo,hi];
// each predicate carries a three-valued constant fact plus — block-
// locally — its defining comparison, which refines the compared
// register's interval on the two edges of a predicated branch.
//
// The analysis runs on vet's forward solver (solve.go) over the
// per-function CFG, with widening after a fixed number of joins per
// block, so it terminates on any input. Every transfer function over-approximates
// the simulator's uint32 lane semantics interpreted as int32 (the
// SETP comparisons are signed): any operation whose result could wrap
// outside int32 goes to the full interval, never to a wrong narrow
// one.
//
// Four fact families come out of the converged state:
//
//   - statically-dead branches: a predicated BRA whose condition is
//     constant on every execution (the taken or the fall-through edge
//     never executes). Reported at Info severity — the builder's
//     counted-loop guard (ForN with a constant trip) is dead by
//     construction, so a Warning would fail every spec-lowered module;
//   - concrete trip-count bounds: for a natural loop whose single
//     latch branches on `SETP.LT cnt, limit` where limit is loop-
//     invariant with a finite upper bound and every write to cnt in
//     the loop is an unpredicated `IADD cnt, cnt, +imm` dominating the
//     latch, the body executes at most max(1, limitHi − entryLo)
//     times per loop entry. These bounds collapse the symbolic
//     ×loop^k cost terms (cost.go) into concrete multipliers;
//   - provable out-of-bounds accesses: a local/shared access whose
//     address interval lies entirely below zero (SevError — the false-
//     positive policy is "provable on every path or silent");
//   - indirect-call target narrowing: a CALLI whose selector register
//     provably holds one candidate (pre-ABI: the MovFuncIdx fixup
//     name; linked: the constant function index), reported at Info
//     and exported as a licensing fact for internal/opt.

const (
	i32Min = -(int64(1) << 31)
	i32Max = int64(1)<<31 - 1

	// rangeWidenAfter bounds fixpoint iteration: after this many joins
	// that changed a block's in-state, growing intervals snap to the
	// lattice bounds.
	rangeWidenAfter = 8

	// maxTrip caps usable trip-count bounds: anything larger stays
	// symbolic — a 2^20-iteration multiplier would dwarf every other
	// term without being actionable.
	maxTrip = int64(1) << 20
)

// ival is one signed-int32 interval. The zero value is the constant 0.
type ival struct{ lo, hi int64 }

func topIval() ival          { return ival{i32Min, i32Max} }
func constIval(v int64) ival { v = int64(int32(v)); return ival{v, v} }

func (a ival) isTop() bool { return a.lo <= i32Min && a.hi >= i32Max }
func (a ival) empty() bool { return a.lo > a.hi }

func (a ival) constant() (int64, bool) {
	if a.lo == a.hi {
		return a.lo, true
	}
	return 0, false
}

func (a ival) join(b ival) ival {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// fits clamps an exactly-computed int64 interval back into the lattice:
// a bound outside int32 means the uint32 lanes may wrap, so the whole
// interval degrades to top.
func fits(lo, hi int64) ival {
	if lo < i32Min || hi > i32Max {
		return topIval()
	}
	return ival{lo, hi}
}

func addIval(a, b ival) ival { return fits(a.lo+b.lo, a.hi+b.hi) }
func subIval(a, b ival) ival { return fits(a.lo-b.hi, a.hi-b.lo) }

func mulIval(a, b ival) ival {
	// |operands| ≤ 2^31, so corner products fit int64 exactly.
	p := [4]int64{a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi}
	lo, hi := p[0], p[0]
	for _, v := range p[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return fits(lo, hi)
}

func minIval(a, b ival) ival { return ival{min64(a.lo, b.lo), min64(a.hi, b.hi)} }
func maxIval(a, b ival) ival { return ival{max64(a.lo, b.lo), max64(a.hi, b.hi)} }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// maskAbove returns the smallest 2^k−1 covering x ≥ 0: a sound upper
// bound for OR/XOR of non-negative operands bounded by x.
func maskAbove(x int64) int64 {
	m := int64(1)
	for m-1 < x {
		m <<= 1
	}
	return m - 1
}

func andIval(a, b ival) ival {
	if ca, aok := a.constant(); aok {
		if cb, bok := b.constant(); bok {
			return constIval(int64(int32(uint32(ca) & uint32(cb))))
		}
	}
	switch {
	case a.lo >= 0 && b.lo >= 0:
		return ival{0, min64(a.hi, b.hi)}
	case a.lo >= 0:
		// b may be a huge unsigned value, but x&y ≤ x for x ≥ 0.
		return ival{0, a.hi}
	case b.lo >= 0:
		return ival{0, b.hi}
	}
	return topIval()
}

func orIval(a, b ival) ival {
	if a.lo >= 0 && b.lo >= 0 {
		return ival{max64(a.lo, b.lo), maskAbove(max64(a.hi, b.hi))}
	}
	return topIval()
}

func xorIval(a, b ival) ival {
	if a.lo >= 0 && b.lo >= 0 {
		return ival{0, maskAbove(max64(a.hi, b.hi))}
	}
	return topIval()
}

func shlIval(a, b ival) ival {
	s, ok := b.constant()
	if !ok || s < 0 || s > 31 {
		return topIval()
	}
	if s == 0 {
		return a
	}
	if a.lo < 0 {
		return topIval()
	}
	return fits(a.lo<<uint(s), a.hi<<uint(s))
}

func shrIval(a, b ival) ival {
	s, ok := b.constant()
	if !ok || s < 0 || s > 31 {
		return topIval()
	}
	if s == 0 {
		return a
	}
	if a.lo >= 0 {
		return ival{a.lo >> uint(s), a.hi >> uint(s)}
	}
	// Logical shift of a possibly-negative int32 reinterprets it as a
	// large uint32; for s ≥ 1 the result still fits int32.
	return ival{0, (int64(1)<<32 - 1) >> uint(s)}
}

// pfact is the three-valued constant lattice for one predicate.
type pfact struct {
	known bool
	val   bool
}

func (a pfact) join(b pfact) pfact {
	if a.known && b.known && a.val == b.val {
		return a
	}
	return pfact{}
}

// frefNone marks "not a known function reference" in the funcref
// lattice; any other value indexes rangeAnalysis.frefNames.
const frefNone = -1

// rstate is the abstract machine state at one program point: one
// interval per register of the function's window, the predicate facts
// and, in pre-ABI modules with funcrefs, which MovFuncIdx name each
// register of the window definitely holds (solve.go).
type rstate = winState[ival, pfact]

// joinRanges joins o into s and reports whether s changed.
func joinRanges(s, o *rstate) (changed bool) {
	oregs := o.regs[:len(s.regs)]
	for r, v := range s.regs {
		if j := v.join(oregs[r]); j != v {
			s.regs[r] = j
			changed = true
		}
	}
	if j := s.rest.join(o.rest); j != s.rest {
		s.rest = j
		changed = true
	}
	for p := range s.preds {
		j := s.preds[p].join(o.preds[p])
		if j != s.preds[p] {
			s.preds[p] = j
			changed = true
		}
	}
	for r := range s.frefs {
		if s.frefs[r] != o.frefs[r] && s.frefs[r] != frefNone {
			s.frefs[r] = frefNone
			changed = true
		}
	}
	return changed
}

// widenRanges snaps every interval of s that grew since prev to the
// lattice bounds, guaranteeing fixpoint termination.
func widenRanges(s, prev *rstate) {
	pregs := prev.regs[:len(s.regs)]
	for r := range s.regs {
		s.regs[r] = widenIval(s.regs[r], pregs[r])
	}
	s.rest = widenIval(s.rest, prev.rest)
}

func widenIval(v, prev ival) ival {
	if v.lo < prev.lo {
		v.lo = i32Min
	}
	if v.hi > prev.hi {
		v.hi = i32Max
	}
	return v
}

// branchFact records one statically-dead branch edge.
type branchFact struct {
	index  int  // BRA instruction index
	always bool // true: condition always holds (fall-through dead); false: never (branch dead)
}

// indirectFact records one provably-narrowed CALLI selector.
type indirectFact struct {
	index   int
	ordinal int
	target  string // pre-ABI candidate name, or the linked func index rendered as #n
}

// funcRanges is the per-function result of the range analysis, stored
// on the funcSummary for the cost pass, the report, and the optimizer
// facts API.
type funcRanges struct {
	deadBranches []branchFact
	trips        map[int]int64 // header block -> body executions per entry
	loops        int
	indirect     []indirectFact
	// blockSym / blockMult feed the cost analysis: per reachable block,
	// the count of enclosing loops with no derived bound (the residual
	// symbolic degree; -1 for blocks on irreducible cycles) and the
	// saturated product of the derived bounds.
	blockSym  []int
	blockMult []int64
}

// rangeAnalysis is the interval lattice over one function (solve.go).
// Every state it holds is carved from the funcVet's arena.
type rangeAnalysis struct {
	v         *funcVet
	li        *loopInfo
	frefNames []string
	frefIdx   map[string]int16

	// cons holds the defining comparisons of the block being solved;
	// edges consumes and clears it.
	cons [8]pcon
	// joins counts, per block, the joins that changed its in-state.
	joins []int
	// loopEntry is, per loop header, the join of the edge states
	// entering it from outside the loop (nil until one does); spare
	// holds the states not yet handed out.
	loopEntry []*rstate
	spare     []rstate
	// The two edge states edges hands out, and a join's previous
	// state for widening.
	edge [2]rstate
	prev rstate
}

// pcon is a block-local defining comparison for one predicate: while
// reg is unredefined since the SETP, "P true ⟺ reg cmp rhs" with rhs
// the operand interval captured at the definition.
type pcon struct {
	valid bool
	reg   uint8
	cmp   isa.CmpKind
	rhs   ival
}

// analyzeRanges is the funcVet entry point: it runs the fixpoint,
// emits the diagnostics, and stores the funcRanges summary.
func (v *funcVet) analyzeRanges(li *loopInfo) {
	nb, nh := len(v.cfg.blocks), len(li.headers)
	var refs *[]int16
	if v.preABI != nil && len(v.preABI.FuncRefs) > 0 {
		refs = &v.arena.refs
	}
	// The solver's nb+1 states, the two edge states, the widening's
	// previous state and one loop-entry state per header.
	states := v.arena.ranges.windows(nb+4+nh, v.window, refs)
	ra := &rangeAnalysis{v: v, li: li, joins: make([]int, nb), spare: states[nb+4:]}
	ra.edge[0], ra.edge[1], ra.prev = states[nb+1], states[nb+2], states[nb+3]
	if nh > 0 {
		ra.loopEntry = make([]*rstate, nb)
	}
	sv := solve[rstate](v.arena, v.cfg, ra, states[:nb+1])
	v.summary.rng = ra.facts(&sv)
	v.summary.blockStarts = make([]int, nb)
	for bi := range v.cfg.blocks {
		v.summary.blockStarts[bi] = v.cfg.blocks[bi].start
	}
}

// entry writes the state at function entry into st.
func (ra *rangeAnalysis) entry(st *rstate) {
	v := ra.v
	for r := range st.regs {
		st.regs[r] = topIval()
	}
	st.rest = topIval()
	if v.isKernel {
		// Callee-saved registers start zeroed at kernel entry (the same
		// contract the sync pass's affine lattice relies on); scratch
		// and parameter registers are arbitrary.
		for r := isa.FirstCalleeSaved; r < len(st.regs); r++ {
			st.regs[r] = constIval(0)
		}
		st.rest = constIval(0)
	}
	st.preds = [8]pfact{}
	st.frefs = st.frefs[:cap(st.frefs)]
	for r := range st.frefs {
		st.frefs[r] = frefNone
	}
}

func (ra *rangeAnalysis) set(dst, src *rstate)       { dst.set(src) }
func (ra *rangeAnalysis) load(st, in *rstate, _ int) { st.set(in) }

// join joins an edge state into a block's in-state; past
// rangeWidenAfter changed joins it widens against the state before the
// join.
func (ra *rangeAnalysis) join(dst, src *rstate, to int) bool {
	widen := ra.joins[to] >= rangeWidenAfter
	if widen {
		ra.prev.set(dst)
	}
	if !joinRanges(dst, src) {
		return false
	}
	ra.joins[to]++
	if widen {
		widenRanges(dst, &ra.prev)
	}
	return true
}

func (ra *rangeAnalysis) frefID(name string) int16 {
	if ra.frefIdx == nil {
		ra.frefIdx = map[string]int16{}
	}
	if id, ok := ra.frefIdx[name]; ok {
		return id
	}
	id := int16(len(ra.frefNames))
	ra.frefNames = append(ra.frefNames, name)
	ra.frefIdx[name] = id
	return id
}

// clobberRange tops the interval (and funcref) state of registers
// [lo, lo+n).
func clobberRange(st *rstate, lo, n int) {
	for r := lo; r < lo+n && r < len(st.regs); r++ {
		st.regs[r] = topIval()
		if len(st.frefs) > 0 {
			st.frefs[r] = frefNone
		}
	}
}

func (ra *rangeAnalysis) setReg(st *rstate, r uint8, v ival, fref int16) {
	if r == isa.NoReg {
		return
	}
	st.regs[r] = v
	if len(st.frefs) > 0 {
		st.frefs[r] = fref
	}
}

// operandB resolves SrcB-or-immediate exactly as the ALU does.
func operandB(st *rstate, in *isa.Instruction) ival {
	if in.SrcB != isa.NoReg {
		return st.regs[in.SrcB]
	}
	return constIval(int64(in.Imm))
}

// evalSetP compares two intervals under the signed semantics of
// CmpKind.Eval, returning a constant verdict when one side's range
// decides the comparison for every inhabitant pair.
func evalSetP(cmp isa.CmpKind, a, b ival) pfact {
	switch cmp {
	case isa.CmpLT:
		if a.hi < b.lo {
			return pfact{true, true}
		}
		if a.lo >= b.hi {
			return pfact{true, false}
		}
	case isa.CmpLE:
		if a.hi <= b.lo {
			return pfact{true, true}
		}
		if a.lo > b.hi {
			return pfact{true, false}
		}
	case isa.CmpGT:
		if a.lo > b.hi {
			return pfact{true, true}
		}
		if a.hi <= b.lo {
			return pfact{true, false}
		}
	case isa.CmpGE:
		if a.lo >= b.hi {
			return pfact{true, true}
		}
		if a.hi < b.lo {
			return pfact{true, false}
		}
	case isa.CmpEQ:
		if ca, ok := a.constant(); ok {
			if cb, ok2 := b.constant(); ok2 && ca == cb {
				return pfact{true, true}
			}
		}
		if a.hi < b.lo || a.lo > b.hi {
			return pfact{true, false}
		}
	case isa.CmpNE:
		if a.hi < b.lo || a.lo > b.hi {
			return pfact{true, true}
		}
		if ca, ok := a.constant(); ok {
			if cb, ok2 := b.constant(); ok2 && ca == cb {
				return pfact{true, false}
			}
		}
	}
	return pfact{}
}

// refine narrows v under the assumption "v cmp rhs" holds (cond true)
// or fails (cond false). An empty result marks an infeasible edge.
func refine(v ival, cmp isa.CmpKind, rhs ival, cond bool) ival {
	if !cond {
		switch cmp {
		case isa.CmpLT:
			cmp, cond = isa.CmpGE, true
		case isa.CmpLE:
			cmp, cond = isa.CmpGT, true
		case isa.CmpGT:
			cmp, cond = isa.CmpLE, true
		case isa.CmpGE:
			cmp, cond = isa.CmpLT, true
		case isa.CmpEQ:
			cmp, cond = isa.CmpNE, true
		case isa.CmpNE:
			cmp, cond = isa.CmpEQ, true
		}
	}
	switch cmp {
	case isa.CmpLT:
		v.hi = min64(v.hi, rhs.hi-1)
	case isa.CmpLE:
		v.hi = min64(v.hi, rhs.hi)
	case isa.CmpGT:
		v.lo = max64(v.lo, rhs.lo+1)
	case isa.CmpGE:
		v.lo = max64(v.lo, rhs.lo)
	case isa.CmpEQ:
		v.lo = max64(v.lo, rhs.lo)
		v.hi = min64(v.hi, rhs.hi)
	case isa.CmpNE:
		if c, ok := rhs.constant(); ok {
			if v.lo == c && v.hi > c {
				v.lo++
			}
			if v.hi == c && v.lo < c {
				v.hi--
			}
		}
	}
	return v
}

// transfer applies instructions from up to to-1 to st.
func (ra *rangeAnalysis) transfer(st *rstate, from, to int) {
	for i := from; i < to; i++ {
		ra.step(st, i)
	}
}

// step applies one instruction to the state and tracks the
// block-local defining comparisons in ra.cons.
func (ra *rangeAnalysis) step(st *rstate, i int) {
	v := ra.v
	in := &v.code[i]
	cons := &ra.cons

	invalidate := func(r uint8) {
		for p := range cons {
			if cons[p].valid && cons[p].reg == r {
				cons[p].valid = false
			}
		}
	}

	// A guarded instruction may or may not execute per lane: with the
	// guard unknown the post-state is the join of both outcomes, which
	// for a single destination write means joining old and new values.
	guarded := in.Pred != isa.NoPred && in.Op != isa.OpSel && in.Op != isa.OpBra
	if guarded {
		g := st.preds[in.Pred&7]
		want := !in.PNeg
		if g.known && g.val != want {
			return // provably inactive: no state change
		}
		if g.known && g.val == want {
			guarded = false // provably active: plain transfer
		}
	}

	switch in.Op {
	case isa.OpCall, isa.OpCallI:
		clobberRange(st, 0, isa.FirstCalleeSaved)
		for r := 0; r < isa.FirstCalleeSaved; r++ {
			invalidate(uint8(r))
		}
		return
	case isa.OpPush, isa.OpPop:
		clobberRange(st, isa.FirstCalleeSaved, int(in.Imm))
		for k := 0; k < int(in.Imm); k++ {
			invalidate(uint8(isa.FirstCalleeSaved + k))
		}
		return
	case isa.OpSetP:
		a := st.reg(in.SrcA)
		b := operandB(st, in)
		f := evalSetP(in.Cmp, a, b)
		p := in.PDst & 7
		if guarded {
			st.preds[p] = st.preds[p].join(f)
			cons[p].valid = false
			return
		}
		st.preds[p] = f
		cons[p] = pcon{valid: true, reg: in.SrcA, cmp: in.Cmp, rhs: b}
		if in.SrcB != isa.NoReg && in.SrcB == in.SrcA {
			cons[p].valid = false // self-comparison carries no refinement
		}
		return
	}

	if !in.WritesReg() {
		return
	}

	a := topIval()
	if in.SrcA != isa.NoReg {
		a = st.regs[in.SrcA]
	}
	b := operandB(st, in)
	c := topIval()
	if in.SrcC != isa.NoReg {
		c = st.regs[in.SrcC]
	}

	out := topIval()
	fref := int16(frefNone)
	switch in.Op {
	case isa.OpMovI:
		out = constIval(int64(in.Imm))
		if v.preABI != nil && len(st.frefs) > 0 {
			if name, ok := v.preABI.FuncRefs[i]; ok {
				fref = ra.frefID(name)
			}
		}
	case isa.OpMov:
		out = a
		if len(st.frefs) > 0 && in.SrcA != isa.NoReg {
			fref = st.frefs[in.SrcA]
		}
	case isa.OpIAdd:
		out = addIval(a, b)
	case isa.OpISub:
		out = subIval(a, b)
	case isa.OpIMul:
		out = mulIval(a, b)
	case isa.OpIMad:
		out = addIval(mulIval(a, b), c)
	case isa.OpIMin:
		out = minIval(a, b)
	case isa.OpIMax:
		out = maxIval(a, b)
	case isa.OpAnd:
		out = andIval(a, b)
	case isa.OpOr:
		out = orIval(a, b)
	case isa.OpXor:
		out = xorIval(a, b)
	case isa.OpShl:
		out = shlIval(a, b)
	case isa.OpShr:
		out = shrIval(a, b)
	case isa.OpS2R:
		switch in.Sreg {
		case isa.SrLaneID:
			out = ival{0, int64(isa.WarpSize) - 1}
		default:
			// Every other special is a non-negative id or count.
			out = ival{0, i32Max}
		}
	case isa.OpSel:
		sel := st.preds[in.Pred&7]
		want := !in.PNeg
		switch {
		case sel.known && sel.val == want:
			out = a
			if len(st.frefs) > 0 && in.SrcA != isa.NoReg {
				fref = st.frefs[in.SrcA]
			}
		case sel.known && sel.val != want:
			out = b
			if len(st.frefs) > 0 && in.SrcB != isa.NoReg {
				fref = st.frefs[in.SrcB]
			}
		default:
			out = a.join(b)
			if len(st.frefs) > 0 && in.SrcA != isa.NoReg && in.SrcB != isa.NoReg &&
				st.frefs[in.SrcA] == st.frefs[in.SrcB] {
				fref = st.frefs[in.SrcA]
			}
		}
	}

	if guarded {
		out = out.join(st.regs[in.Dst])
		if len(st.frefs) > 0 && fref != st.frefs[in.Dst] {
			fref = frefNone
		}
	}
	ra.setReg(st, in.Dst, out, fref)
	invalidate(in.Dst)
}

// edges returns the states along block bi's successor edges given st
// after its last instruction. A predicated BRA's two edges are refined
// by the branch condition and the block's defining comparison, nil
// marking an edge the analysis proved infeasible; any other block fans
// st out unchanged. The successor order matches cfg construction: for
// a predicated BRA, succs[0] is the fall-through and succs[1] the
// taken edge. Each feasible edge entering a loop header from outside
// the loop is also joined into the header's loop-entry state, which
// the trip-count derivation needs uncontaminated by back-edge states.
func (ra *rangeAnalysis) edges(bi int, st *rstate) [2]*rstate {
	v := ra.v
	b := &v.cfg.blocks[bi]
	cons := ra.cons
	ra.cons = [8]pcon{}
	out := [2]*rstate{st, st}
	if last := &v.code[b.end-1]; last.Op == isa.OpBra && last.Pred != isa.NoPred && len(b.succs) == 2 {
		p := last.Pred & 7
		f, con := st.preds[p], cons[p]
		// Branch taken ⟺ predicate == !PNeg.
		mk := func(es *rstate, cond bool) *rstate {
			if f.known && f.val != cond {
				return nil // edge statically dead
			}
			es.set(st)
			es.preds[p] = pfact{known: true, val: cond}
			if con.valid {
				r := refine(es.regs[con.reg], con.cmp, con.rhs, cond)
				if r.empty() {
					return nil
				}
				es.regs[con.reg] = r
			}
			return es
		}
		out = [2]*rstate{mk(&ra.edge[0], last.PNeg), mk(&ra.edge[1], !last.PNeg)}
	}
	for si, s := range b.succs {
		if lp := ra.li.headers[s]; out[si] != nil && lp != nil && !lp.body[bi] {
			if e := ra.loopEntry[s]; e != nil {
				joinRanges(e, out[si])
			} else {
				e, ra.spare = &ra.spare[0], ra.spare[1:]
				e.set(out[si])
				ra.loopEntry[s] = e
			}
		}
	}
	return out
}

// facts replays the converged states once and produces the
// diagnostics and the funcRanges summary.
func (ra *rangeAnalysis) facts(sv *solver[rstate]) *funcRanges {
	v := ra.v
	fr := &funcRanges{trips: map[int]int64{}, loops: ra.li.loops}
	loops := ra.countedLoops()
	sv.replay(func(i int, st *rstate) {
		in := &v.code[i]
		switch in.Op {
		case isa.OpBra:
			if in.Pred != isa.NoPred {
				f := st.preds[in.Pred&7]
				want := !in.PNeg
				if f.known {
					if f.val == want {
						fr.deadBranches = append(fr.deadBranches, branchFact{index: i, always: true})
						v.diag(SevInfo, i, CheckDeadBranch,
							"branch condition always holds: the fall-through edge is statically dead")
					} else {
						fr.deadBranches = append(fr.deadBranches, branchFact{index: i, always: false})
						v.diag(SevInfo, i, CheckDeadBranch,
							"branch condition never holds: the branch is statically dead")
					}
				}
			}
		case isa.OpLdL, isa.OpStL, isa.OpLdS, isa.OpStS:
			addr := addIval(st.reg(in.SrcA), constIval(int64(in.Imm)))
			if addr.hi < 0 {
				kind := "local"
				if in.Op == isa.OpLdS || in.Op == isa.OpStS {
					kind = "shared"
				}
				v.diag(SevError, i, CheckOOB,
					"%s accesses %s memory at a provably negative address [%d,%d]",
					in.Op, kind, addr.lo, addr.hi)
			}
		case isa.OpCallI:
			if t, ok := ra.selectorTarget(st, in); ok {
				fr.indirect = append(fr.indirect, indirectFact{
					index: i, ordinal: v.summary.site(i).ordinal, target: t,
				})
				v.diag(SevInfo, i, CheckIndirect,
					"indirect call selector provably resolves to %s: the site is devirtualizable", t)
			}
		case isa.OpSetP:
			for k := range loops {
				if cl := &loops[k]; cl.setp == i && !cl.limitKnown {
					cl.limitHi, cl.limitKnown = st.regs[in.SrcB].hi, true
				}
			}
		}
	})
	for _, cl := range loops {
		if trips := cl.trips(); trips > 0 {
			fr.trips[cl.header] = trips
		}
	}
	ra.blockMultipliers(fr)
	return fr
}

// selectorTarget resolves a provably-constant CALLI selector: the
// funcref name in pre-ABI modules, the constant function index in
// linked programs.
func (ra *rangeAnalysis) selectorTarget(st *rstate, in *isa.Instruction) (string, bool) {
	if in.SrcA == isa.NoReg {
		return "", false
	}
	if len(st.frefs) > 0 {
		if id := st.frefs[in.SrcA]; id != frefNone {
			return ra.frefNames[id], true
		}
		return "", false
	}
	if ra.v.linked {
		if c, ok := st.regs[in.SrcA].constant(); ok && c >= 0 {
			return fmt.Sprintf("#%d", c), true
		}
	}
	return "", false
}

// countedLoop is an entered loop in the builder's counted shape (see
// the package comment for the soundness argument). Its body executes
// at most max(1, limitHi − entryLo) times per entry.
type countedLoop struct {
	header, setp int   // header block; the latch's SETP.LT cnt, limit
	entryLo      int64 // cnt's lower bound at loop entry
	// limitHi bounds the limit operand at the SETP: an immediate's
	// value, or what the replay reads off a register; a register limit
	// whose SETP the fixpoint never reached stays unknown.
	limitHi    int64
	limitKnown bool
}

// trips is the loop's derived trip bound, or 0 when none is usable.
func (cl *countedLoop) trips() int64 {
	if !cl.limitKnown || cl.limitHi >= maxTrip {
		return 0
	}
	if trips := max64(1, cl.limitHi-cl.entryLo); trips < maxTrip {
		return trips
	}
	return 0
}

// countedLoops finds the loops in the builder's counted shape that the
// fixpoint entered.
func (ra *rangeAnalysis) countedLoops() []countedLoop {
	v := ra.v
	var out []countedLoop
	for h, lp := range ra.li.headers {
		if len(lp.latches) != 1 || ra.loopEntry[h] == nil {
			continue
		}
		u := lp.latches[0]
		ub := &v.cfg.blocks[u]
		last := &v.code[ub.end-1]
		// The back edge must be `@P BRA header` (positive predicate).
		if last.Op != isa.OpBra || last.Pred == isa.NoPred || last.PNeg {
			continue
		}
		if last.Target < 0 || last.Target >= len(v.code) || v.cfg.blockOf[last.Target] != h {
			continue
		}
		// Find the SETP defining P in the latch, with P, cnt and the
		// limit operand unredefined between it and the branch.
		p := last.Pred
		setp := -1
		for i := ub.end - 2; i >= ub.start; i-- {
			in := &v.code[i]
			if in.Op == isa.OpSetP && in.PDst == p {
				setp = i
				break
			}
		}
		if setp < 0 {
			continue
		}
		sp := &v.code[setp]
		if sp.Cmp != isa.CmpLT || sp.Pred != isa.NoPred {
			continue
		}
		cnt := sp.SrcA
		clean := true
		for i := setp + 1; i < ub.end-1; i++ {
			in := &v.code[i]
			if in.Op == isa.OpSetP && in.PDst == p {
				clean = false
			}
			if writesRegister(in, cnt) || (sp.SrcB != isa.NoReg && writesRegister(in, sp.SrcB)) {
				clean = false
			}
		}
		if !clean {
			continue
		}
		// The limit operand must be loop-invariant with a finite upper
		// bound at the comparison.
		cl := countedLoop{header: h, setp: setp}
		if sp.SrcB == isa.NoReg {
			cl.limitHi, cl.limitKnown = int64(sp.Imm), true
		} else {
			invariant := true
			for bb := range lp.body {
				blk := &v.cfg.blocks[bb]
				for i := blk.start; i < blk.end; i++ {
					if writesRegister(&v.code[i], sp.SrcB) {
						invariant = false
					}
				}
			}
			if !invariant {
				continue
			}
		}
		// Every write to cnt inside the loop must be an unpredicated
		// constant positive increment whose block dominates the latch —
		// and at least one must exist: each completed iteration then
		// advances cnt by at least one on every lane that takes the
		// back edge.
		ok := true
		incs := 0
		for bb := range lp.body {
			blk := &v.cfg.blocks[bb]
			for i := blk.start; i < blk.end; i++ {
				in := &v.code[i]
				if !writesRegister(in, cnt) {
					continue
				}
				if in.Op != isa.OpIAdd || in.Pred != isa.NoPred || in.Dst != cnt ||
					in.SrcA != cnt || in.SrcB != isa.NoReg || in.Imm < 1 {
					ok = false
					break
				}
				if !ra.li.dominates(bb, u) {
					ok = false
					break
				}
				incs++
			}
			if !ok {
				break
			}
		}
		if !ok || incs == 0 {
			continue
		}
		if cl.entryLo = ra.loopEntry[h].regs[cnt].lo; cl.entryLo > i32Min {
			out = append(out, cl)
		}
	}
	return out
}

// writesRegister reports whether executing in may change register r,
// including the renaming/clobbering side effects of calls and the
// CARS window micro-ops.
func writesRegister(in *isa.Instruction, r uint8) bool {
	switch in.Op {
	case isa.OpCall, isa.OpCallI:
		return r < isa.FirstCalleeSaved
	case isa.OpPush, isa.OpPop:
		return r >= isa.FirstCalleeSaved && int(r) < isa.FirstCalleeSaved+int(in.Imm)
	}
	return in.WritesReg() && in.Dst == r
}

// blockMultipliers folds the derived trip bounds into per-block cost
// factors: each reachable block gets the saturated product of its
// enclosing loops' known bounds and the count of enclosing loops that
// stayed symbolic.
func (ra *rangeAnalysis) blockMultipliers(fr *funcRanges) {
	nb := len(ra.v.cfg.blocks)
	fr.blockSym = make([]int, nb)
	fr.blockMult = make([]int64, nb)
	for bi := 0; bi < nb; bi++ {
		fr.blockMult[bi] = 1
		if ra.li.unbounded[bi] {
			fr.blockSym[bi] = -1
			continue
		}
		for h, lp := range ra.li.headers {
			if !lp.body[bi] {
				continue
			}
			// Fold the bound into the multiplier only while the product
			// stays comfortably inside int64 headroom (≤ 2^40); deeper
			// products degrade to a symbolic loop factor instead.
			if t, ok := fr.trips[h]; ok && fr.blockMult[bi] <= (int64(1)<<40)/t {
				fr.blockMult[bi] *= t
			} else {
				fr.blockSym[bi]++
			}
		}
	}
}

// LoopBound is one concrete loop trip bound in the perf report: the
// loop's header instruction index and the guaranteed maximum number of
// body executions per loop entry.
type LoopBound struct {
	Func  string `json:"func"`
	Index int    `json:"index"`
	Trips int64  `json:"trips"`
}

// RangeReport aggregates the range/trip-count facts for one kernel's
// call graph, surfaced under KernelReport.Perf.
type RangeReport struct {
	// Loops lists every loop with a derived concrete trip bound.
	Loops []LoopBound `json:"loops,omitempty"`
	// UnknownLoops counts natural loops with no derivable bound.
	UnknownLoops int `json:"unknownLoops"`
	// DeadBranches counts statically-dead branch edges.
	DeadBranches int `json:"deadBranches"`
	// Devirtualizable counts indirect call sites with a provably
	// constant selector.
	Devirtualizable int `json:"devirtualizable"`
}

// attachRanges aggregates the per-function range facts over each
// kernel's reachable call graph and attaches them to the kernel perf
// reports.
func attachRanges(rep *ProgramReport, p *isa.Program, sums []*funcSummary) {
	for ki := range rep.Kernels {
		root, ok := p.Kernels[rep.Kernels[ki].Kernel]
		if !ok {
			continue
		}
		rr := &RangeReport{}
		for _, fi := range reachFrom(sums, root) {
			rng := sums[fi].rng
			if rng == nil {
				continue
			}
			rr.DeadBranches += len(rng.deadBranches)
			rr.Devirtualizable += len(rng.indirect)
			rr.UnknownLoops += rng.loops - len(rng.trips)
			headers := make([]int, 0, len(rng.trips))
			for h := range rng.trips {
				headers = append(headers, h)
			}
			sort.Ints(headers)
			for _, h := range headers {
				rr.Loops = append(rr.Loops, LoopBound{
					Func: p.Funcs[fi].Name, Index: headerIndex(sums[fi], h), Trips: rng.trips[h],
				})
			}
		}
		if rep.Kernels[ki].Perf == nil {
			rep.Kernels[ki].Perf = &KernelPerf{}
		}
		rep.Kernels[ki].Perf.Ranges = rr
	}
}

// headerIndex converts a header block id into its first instruction
// index using the block starts stashed on the summary.
func headerIndex(s *funcSummary, h int) int {
	if h >= 0 && h < len(s.blockStarts) {
		return s.blockStarts[h]
	}
	return -1
}
