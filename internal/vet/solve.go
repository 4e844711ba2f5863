package vet

import "slices"

// The forward dataflow solver (DESIGN.md §8). The uniformity pass
// (sync.go), the interval pass (range.go) and the must-analyses
// (check.go) each supply a lattice; the solver owns the worklist, the
// reached blocks, the iteration bound and the replay, and every state
// it works on is carved from one arena.

// lattice is what a forward pass supplies to the solver, over states S.
type lattice[S any] interface {
	// entry writes the state at function entry.
	entry(st *S)
	// set makes dst a copy of src.
	set(dst, src *S)
	// load starts st, the state block bi is solved in, from in, that
	// block's in-state. A pass whose join accumulates copies in; one
	// whose join is not monotone first rebuilds in from the states it
	// recorded in edges.
	load(st, in *S, bi int)
	// transfer applies instructions from up to to-1 to st in order. The
	// loop is the pass's so that each instruction is a direct call;
	// replay calls it one instruction at a time.
	transfer(st *S, from, to int)
	// edges returns the state along each successor edge of block bi, in
	// the CFG's successor order, given st after the block's last
	// instruction; nil marks an edge the pass proved infeasible.
	edges(bi int, st *S) [2]*S
	// join joins src, the state along an edge into block to, into dst,
	// that block's in-state, and reports whether block to must be
	// solved again.
	join(dst, src *S, to int) bool
}

// solver is a forward pass converged over one function's CFG.
type solver[S any] struct {
	c       *cfg
	l       lattice[S]
	in      []S    // per block: the in-state, meaningful where reached
	cur     *S     // the state a block is solved or replayed in
	reached []bool // per block: some feasible edge from entry leads here
}

// solve runs l to fixpoint over c. states holds len(c.blocks)+1 states
// the pass carved from a: one in-state per block, then the state
// blocks are solved and replayed in. Block 0 starts from the entry
// state; a block first reached starts from the edge state that reached
// it; every later feasible edge out of a reached block is joined into
// its successor, block 0 included, and a successor the join asks for
// is queued once (FIFO, seeded with block 0: the interval pass's
// widening depends on that order). The bound of 4·blocks²+4096 visits
// stops a lattice that fails to converge.
func solve[S any](a *arena, c *cfg, l lattice[S], states []S) solver[S] {
	nb := len(c.blocks)
	flags := reuse(&a.flags, 2*nb)
	sv := solver[S]{c: c, l: l, in: states[:nb], cur: &states[nb], reached: flags[:nb]}
	if nb == 0 {
		return sv
	}
	inWork := flags[nb:]
	l.entry(&sv.in[0])
	sv.reached[0], inWork[0] = true, true
	work := append(a.work[:0], 0)
	for head := 0; head < len(work) && head < 4*nb*nb+4096; head++ {
		bi := work[head]
		inWork[bi] = false
		b := &c.blocks[bi]
		l.load(sv.cur, &sv.in[bi], bi)
		l.transfer(sv.cur, b.start, b.end)
		out := l.edges(bi, sv.cur)
		for si, s := range b.succs {
			switch {
			case out[si] == nil:
				continue
			case !sv.reached[s]:
				sv.reached[s] = true
				l.set(&sv.in[s], out[si])
			case !l.join(&sv.in[s], out[si], s):
				continue
			}
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	a.work = work[:0]
	return sv
}

// replay walks every reached block from its converged in-state,
// calling visit with the state just before each instruction executes.
func (sv *solver[S]) replay(visit func(i int, st *S)) {
	for bi := range sv.c.blocks {
		if !sv.reached[bi] {
			continue
		}
		b := &sv.c.blocks[bi]
		sv.l.set(sv.cur, &sv.in[bi])
		for i := b.start; i < b.end; i++ {
			visit(i, sv.cur)
			sv.l.transfer(sv.cur, i, i+1)
		}
	}
}

// winState is the abstract machine state of the uniformity and
// interval passes at one program point: one value per register of the
// function's window (regWindow), the value every register past the
// window holds, and one fact per predicate. The interval pass also
// tracks in frefs which function reference each register of the window
// definitely holds; frefs is empty when nothing is tracked. States of
// one function share a window width.
type winState[V, P comparable] struct {
	regs  []V
	rest  V
	preds [8]P
	frefs []int16
}

// reg reads register r, which may lie past the window (NoReg operands).
func (s *winState[V, P]) reg(r uint8) V {
	if int(r) < len(s.regs) {
		return s.regs[r]
	}
	return s.rest
}

// set makes s a copy of o. s's frefs capacity must hold o's.
func (s *winState[V, P]) set(o *winState[V, P]) {
	copy(s.regs, o.regs)
	s.rest, s.preds = o.rest, o.preds
	s.frefs = append(s.frefs[:0], o.frefs...)
}

// equal reports whether s and o hold the same values.
func (s *winState[V, P]) equal(o *winState[V, P]) bool {
	return s.rest == o.rest && s.preds == o.preds && slices.Equal(s.regs, o.regs) && slices.Equal(s.frefs, o.frefs)
}

// arena is the scratch store of one Report, one module set or one
// ModuleFacts call: every pass over every function carves its states
// from it, overwriting the states of the pass before. Each store grows
// to the largest function seen.
type arena struct {
	flags  []bool
	done   []bool
	work   []int
	sets   []regset
	refs   []int16
	affine store[aval, pval]
	ranges store[ival, pfact]
}

// store is the arena's share for one window state type.
type store[V, P comparable] struct {
	states []winState[V, P]
	vals   []V
}

// windows carves n states w registers wide, each with w
// function-reference slots from refs when refs is non-nil. Their values
// are whatever the pass before left: the solver and every lattice write
// a state (entry, a copy) before reading it, so nothing is zeroed.
func (s *store[V, P]) windows(n, w int, refs *[]int16) []winState[V, P] {
	states := grow(&s.states, n)
	vals := grow(&s.vals, n*w)
	var fr []int16
	if refs != nil {
		fr = grow(refs, n*w)
	}
	for k := range states {
		states[k].regs = vals[k*w : (k+1)*w : (k+1)*w]
		states[k].frefs = nil
		if refs != nil {
			states[k].frefs = fr[k*w : k*w : (k+1)*w]
		}
	}
	return states
}

// grow returns *buf resized to n elements, reallocating only when its
// capacity falls short; the elements keep what they held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// reuse is grow with the n elements zeroed.
func reuse[T any](buf *[]T, n int) []T {
	s := grow(buf, n)
	clear(s)
	return s
}

// mustSets is the must-analyses' lattice (check.go): register sets that
// hold on every path, intersected where paths join.
type mustSets struct {
	start regset
	step  func(i int, s *regset)
}

func (m *mustSets) entry(st *regset)                   { *st = m.start }
func (m *mustSets) set(dst, src *regset)               { *dst = *src }
func (m *mustSets) load(st, in *regset, _ int)         { *st = *in }
func (m *mustSets) edges(_ int, st *regset) [2]*regset { return [2]*regset{st, st} }

func (m *mustSets) transfer(st *regset, from, to int) {
	for i := from; i < to; i++ {
		m.step(i, st)
	}
}

func (m *mustSets) join(dst, src *regset, _ int) bool {
	old := *dst
	dst.intersect(src)
	return *dst != old
}

// must solves a must-analysis over v's CFG: start holds at entry and
// step applies one instruction.
func (v *funcVet) must(start regset, step func(i int, s *regset)) solver[regset] {
	return solve[regset](v.arena, v.cfg, &mustSets{start, step}, reuse(&v.arena.sets, len(v.cfg.blocks)+1))
}
