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
// The analysis is a forward worklist fixpoint over the per-function
// CFG with widening after a fixed number of joins per block, so it
// terminates on any input. Every transfer function over-approximates
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
// interval per register of the function's window (regWindow), the
// interval every register past the window holds, and the predicate
// facts. States of one function share a window width.
type rstate struct {
	regs  []ival
	rest  ival
	preds [8]pfact
	// frefs tracks which MovFuncIdx name each register of the window
	// definitely holds. It is empty when nothing is tracked: in linked
	// programs, in pre-ABI modules without funcrefs, and in the zero
	// state of a block the fixpoint never reached.
	frefs []int16
}

// reg reads register r, which may lie past the window (NoReg operands).
func (s *rstate) reg(r uint8) ival {
	if int(r) < len(s.regs) {
		return s.regs[r]
	}
	return s.rest
}

// set makes s a copy of o. s's frefs capacity must hold the window.
func (s *rstate) set(o *rstate) {
	copy(s.regs, o.regs)
	s.rest, s.preds = o.rest, o.preds
	s.frefs = append(s.frefs[:0], o.frefs...)
}

func (s *rstate) join(o *rstate) (changed bool) {
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

// widen snaps every interval that grew since prev to the lattice
// bounds, guaranteeing fixpoint termination.
func (s *rstate) widen(prev *rstate) {
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

// rangeAnalysis runs the interval fixpoint for one function. Every
// state it holds is carved from one arena when run starts.
type rangeAnalysis struct {
	v         *funcVet
	li        *loopInfo
	in        []rstate // converged per-block in-states
	entry     []rstate // per loop header: join over non-body predecessors
	hasEntry  []bool
	frefNames []string
	frefIdx   map[string]int16

	// Scratch: the state a block is replayed in, the per-edge states
	// edgeStates hands out, and a join's previous state for widening.
	cur, prev rstate
	edge      [2]rstate
	outs      [2]*rstate
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
	ra := &rangeAnalysis{v: v, li: li}
	ra.run()
	v.summary.rng = ra.facts()
	v.summary.blockStarts = make([]int, len(v.cfg.blocks))
	for bi := range v.cfg.blocks {
		v.summary.blockStarts[bi] = v.cfg.blocks[bi].start
	}
}

// carve allocates the analysis's states in one arena each for the
// intervals and the funcrefs: nb per-block in-states, one entry state
// per loop header, and the scratch states. All start as the zero state.
func (ra *rangeAnalysis) carve(nb int) {
	n := ra.v.window
	count := nb + len(ra.li.headers) + 4
	regs := make([]ival, count*n)
	var refs []int16
	if ra.v.preABI != nil && len(ra.v.preABI.FuncRefs) > 0 {
		refs = make([]int16, count*n)
	}
	next := func() rstate {
		st := rstate{regs: regs[:n:n]}
		regs = regs[n:]
		if refs != nil {
			st.frefs = refs[:0:n]
			refs = refs[n:]
		}
		return st
	}
	ra.in = make([]rstate, nb)
	for bi := range ra.in {
		ra.in[bi] = next()
	}
	ra.entry = make([]rstate, nb)
	for h := range ra.li.headers {
		ra.entry[h] = next()
	}
	ra.cur, ra.prev = next(), next()
	ra.edge[0], ra.edge[1] = next(), next()
}

// entryState writes the state at function entry into st.
func (ra *rangeAnalysis) entryState(st *rstate) {
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
	st.frefs = st.frefs[:cap(st.frefs)]
	for r := range st.frefs {
		st.frefs[r] = frefNone
	}
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

// transfer applies one instruction to the state. cons tracks the
// block-local defining comparisons; pass nil to skip that bookkeeping.
func (ra *rangeAnalysis) transfer(i int, st *rstate, cons *[8]pcon) {
	v := ra.v
	in := &v.code[i]

	invalidate := func(r uint8) {
		if cons == nil {
			return
		}
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
		if cons != nil {
			for r := 0; r < isa.FirstCalleeSaved; r++ {
				invalidate(uint8(r))
			}
		}
		return
	case isa.OpPush, isa.OpPop:
		clobberRange(st, isa.FirstCalleeSaved, int(in.Imm))
		if cons != nil {
			for k := 0; k < int(in.Imm); k++ {
				invalidate(uint8(isa.FirstCalleeSaved + k))
			}
		}
		return
	case isa.OpSetP:
		a := st.reg(in.SrcA)
		b := operandB(st, in)
		f := evalSetP(in.Cmp, a, b)
		p := in.PDst & 7
		if guarded {
			st.preds[p] = st.preds[p].join(f)
			if cons != nil {
				cons[p].valid = false
			}
			return
		}
		st.preds[p] = f
		if cons != nil {
			cons[p] = pcon{valid: true, reg: in.SrcA, cmp: in.Cmp, rhs: b}
			if in.SrcB != isa.NoReg && in.SrcB == in.SrcA {
				cons[p].valid = false // self-comparison carries no refinement
			}
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

// edgeStates walks block bi from its in-state and returns the per-
// successor out-states, nil marking an edge the analysis proved
// infeasible. The successor order matches cfg construction: for a
// predicated BRA, succs[0] is the fall-through and succs[1] the taken
// edge. The states are scratch, valid until the next call.
func (ra *rangeAnalysis) edgeStates(bi int) []*rstate {
	v := ra.v
	b := &v.cfg.blocks[bi]
	st := &ra.cur
	st.set(&ra.in[bi])
	var cons [8]pcon
	for i := b.start; i < b.end-1; i++ {
		ra.transfer(i, st, &cons)
	}
	last := &v.code[b.end-1]
	out := ra.outs[:len(b.succs)]
	if last.Op != isa.OpBra || last.Pred == isa.NoPred || len(b.succs) != 2 {
		// Single (or no) distinguishable edge: apply the final transfer
		// and fan the state out unchanged.
		ra.transfer(b.end-1, st, &cons)
		for i := range out {
			out[i] = st
		}
		return out
	}

	p := last.Pred & 7
	f := st.preds[p]
	con := cons[p]
	// Branch taken ⟺ predicate == !PNeg.
	want := !last.PNeg

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
	// succs[0] = fall-through (branch not taken: predicate == PNeg),
	// succs[1] = taken.
	out[0], out[1] = mk(&ra.edge[0], !want), mk(&ra.edge[1], want)
	return out
}

// run executes the fixpoint and stores the converged in-states.
func (ra *rangeAnalysis) run() {
	v := ra.v
	nb := len(v.cfg.blocks)
	ra.carve(nb)
	ra.hasEntry = make([]bool, nb)
	hasIn := make([]bool, nb)
	joins := make([]int, nb)

	ra.entryState(&ra.in[0])
	hasIn[0] = true

	inWork := make([]bool, nb)
	work := []int{0}
	inWork[0] = true
	for head := 0; head < len(work); head++ {
		bi := work[head]
		inWork[bi] = false
		outs := ra.edgeStates(bi)
		b := &v.cfg.blocks[bi]
		for si, es := range outs {
			if es == nil {
				continue
			}
			s := b.succs[si]
			// Track the loop-entry state separately: the join over
			// edges from outside the loop body, which the trip-count
			// derivation needs uncontaminated by back-edge states.
			if lp := ra.li.headers[s]; lp != nil && !lp.body[bi] {
				if !ra.hasEntry[s] {
					ra.entry[s].set(es)
					ra.hasEntry[s] = true
				} else {
					ra.entry[s].join(es)
				}
			}
			changed := false
			if !hasIn[s] {
				ra.in[s].set(es)
				hasIn[s] = true
				changed = true
			} else {
				// Widening compares against the state before this join;
				// only a join past the threshold needs it.
				widen := joins[s] >= rangeWidenAfter
				if widen {
					ra.prev.set(&ra.in[s])
				}
				if ra.in[s].join(es) {
					joins[s]++
					if widen {
						ra.in[s].widen(&ra.prev)
					}
					changed = true
				}
			}
			if changed && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
}

// stateAt replays the converged block state up to (not including)
// instruction i of block bi, in the scratch state.
func (ra *rangeAnalysis) stateAt(bi, i int) *rstate {
	st := &ra.cur
	st.set(&ra.in[bi])
	var cons [8]pcon
	for j := ra.v.cfg.blocks[bi].start; j < i; j++ {
		ra.transfer(j, st, &cons)
	}
	return st
}

// facts walks the converged state once more and produces the
// diagnostics and the funcRanges summary.
func (ra *rangeAnalysis) facts() *funcRanges {
	v := ra.v
	li := ra.li
	fr := &funcRanges{trips: map[int]int64{}, loops: li.loops}

	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := &ra.cur
		st.set(&ra.in[bi])
		var cons [8]pcon
		for i := b.start; i < b.end; i++ {
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
			}
			ra.transfer(i, st, &cons)
		}
	}

	ra.deriveTrips(fr)
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

// deriveTrips extracts concrete trip-count bounds for the builder's
// counted-loop shape (see the package comment for the soundness
// argument).
func (ra *rangeAnalysis) deriveTrips(fr *funcRanges) {
	v := ra.v
	for h, lp := range ra.li.headers {
		if len(lp.latches) != 1 || !ra.hasEntry[h] {
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
		var limitHi int64
		if sp.SrcB == isa.NoReg {
			limitHi = int64(sp.Imm)
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
			at := ra.stateAt(u, setp)
			limitHi = at.regs[sp.SrcB].hi
		}
		if limitHi >= maxTrip {
			continue
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
		entryLo := ra.entry[h].regs[cnt].lo
		if entryLo <= i32Min {
			continue
		}
		trips := max64(1, limitHi-entryLo)
		if trips >= maxTrip {
			continue
		}
		fr.trips[h] = trips
	}
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
