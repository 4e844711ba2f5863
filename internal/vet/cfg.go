package vet

import (
	"math/bits"

	"carsgo/internal/isa"
)

// block is one basic block: the half-open instruction range
// [start, end), its successor block indices, and whether control can
// leave the block past the end of the function (a structural error on
// any reachable path — the fetch stage has no instruction to issue).
type block struct {
	start, end int
	succs      []int
	preds      []int
	pastEnd    bool
}

// cfg is the per-function control-flow graph. Leaders are instruction
// 0, branch targets (including the reconvergence point of predicated
// branches and SSY), and every instruction after a branch, RET, or
// EXIT. A branch target equal to len(code) is representable (the
// validator allows it) and maps to the pastEnd marker rather than a
// block.
type cfg struct {
	code    []isa.Instruction
	blocks  []block
	blockOf []int  // instruction index -> block index
	reach   []bool // per block, reachable from entry
}

func buildCFG(code []isa.Instruction) *cfg {
	n := len(code)
	leader := make([]bool, n+1)
	leader[0] = true
	mark := func(t int) {
		if t >= 0 && t < n {
			leader[t] = true
		}
	}
	for i := 0; i < n; i++ {
		switch in := &code[i]; in.Op {
		case isa.OpBra:
			mark(in.Target)
			if in.Pred != isa.NoPred {
				mark(in.Target2)
			}
			leader[i+1] = true
		case isa.OpSSY:
			mark(in.Target2)
		case isa.OpRet, isa.OpExit:
			leader[i+1] = true
		}
	}

	c := &cfg{code: code, blockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			c.blocks = append(c.blocks, block{start: i})
		}
		c.blockOf[i] = len(c.blocks) - 1
	}
	for bi := range c.blocks {
		if bi+1 < len(c.blocks) {
			c.blocks[bi].end = c.blocks[bi+1].start
		} else {
			c.blocks[bi].end = n
		}
	}

	addSucc := func(b *block, t int) {
		if t >= n {
			b.pastEnd = true
			return
		}
		b.succs = append(b.succs, c.blockOf[t])
	}
	for bi := range c.blocks {
		b := &c.blocks[bi]
		last := &code[b.end-1]
		switch {
		case last.Op == isa.OpBra && last.Pred == isa.NoPred:
			addSucc(b, last.Target)
		case last.Op == isa.OpBra:
			addSucc(b, b.end) // fall-through (predicate false)
			addSucc(b, last.Target)
		case last.Op == isa.OpRet || last.Op == isa.OpExit:
			// terminal
		default:
			addSucc(b, b.end)
		}
	}
	for bi := range c.blocks {
		for _, s := range c.blocks[bi].succs {
			c.blocks[s].preds = append(c.blocks[s].preds, bi)
		}
	}

	c.reach = make([]bool, len(c.blocks))
	if len(c.blocks) > 0 {
		work := []int{0}
		c.reach[0] = true
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			for _, s := range c.blocks[bi].succs {
				if !c.reach[s] {
					c.reach[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return c
}

// regWindow is how many leading registers the abstract interpreters
// (sync.go, range.go) keep state for in one function: one past the
// highest register an instruction names, raised to cover R0..R15
// (calls clobber them; arguments are R4..R7 and the result R4), every
// PUSH/POP's renamed slots and the declared callee-saved set. No
// transfer function writes a register at or past the window, and only
// operands named NoReg read one, so all of them keep one value in
// every state, which the state's rest field holds (DESIGN.md §8). A
// SETP naming NoReg as its first operand compares R255, which the
// range pass narrows on the branch edges, so it counts as naming R255.
func regWindow(code []isa.Instruction, calleeSaved int) int {
	n := isa.FirstCalleeSaved + min(max(calleeSaved, 0), isa.MaxArchRegs)
	for i := range code {
		in := &code[i]
		for _, r := range [...]uint8{in.Dst, in.SrcA, in.SrcB, in.SrcC} {
			if r != isa.NoReg {
				n = max(n, int(r)+1)
			}
		}
		switch {
		case in.Op == isa.OpPush || in.Op == isa.OpPop:
			n = max(n, isa.FirstCalleeSaved+int(in.Imm))
		case in.Op == isa.OpSetP && in.SrcA == isa.NoReg:
			n = isa.MaxArchRegs
		}
	}
	return min(n, isa.MaxArchRegs)
}

// regset is a 256-register bitset for the dataflow analyses.
type regset [isa.MaxArchRegs / 64]uint64

func (s *regset) add(r uint8)    { s[r>>6] |= 1 << (r & 63) }
func (s *regset) remove(r uint8) { s[r>>6] &^= 1 << (r & 63) }

func (s *regset) has(r uint8) bool { return s[r>>6]&(1<<(r&63)) != 0 }

func (s *regset) addRange(lo, n int) {
	for r := lo; r < lo+n && r < isa.MaxArchRegs; r++ {
		s.add(uint8(r))
	}
}

func (s *regset) removeRange(lo, n int) {
	for r := lo; r < lo+n && r < isa.MaxArchRegs; r++ {
		s.remove(uint8(r))
	}
}

func (s *regset) intersect(o *regset) {
	for i := range s {
		s[i] &= o[i]
	}
}

func (s *regset) union(o *regset) {
	for i := range s {
		s[i] |= o[i]
	}
}

func (s *regset) subtract(o *regset) {
	for i := range s {
		s[i] &^= o[i]
	}
}

func (s *regset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every register in the set, in ascending order.
func (s *regset) forEach(fn func(r uint8)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(uint8(wi*64 + b))
			w &^= 1 << b
		}
	}
}

// backwardMay runs a backward any-path ("may") dataflow to fixpoint:
// a block's out-state is the union of its successors' in-states, and
// transfer applies one instruction's effect bottom-up. Blocks that
// leave the function (RET/EXIT or control past the end) additionally
// merge the exit state into their out-state. It returns the out-state
// of every block, from which callers re-walk block bodies backward.
func (c *cfg) backwardMay(exit regset, transfer func(i int, s *regset)) []regset {
	nb := len(c.blocks)
	in := make([]regset, nb)
	out := make([]regset, nb)
	if nb == 0 {
		return out
	}

	terminal := func(b *block) bool {
		if b.pastEnd || len(b.succs) == 0 {
			return true
		}
		last := &c.code[b.end-1]
		return last.Op == isa.OpRet || last.Op == isa.OpExit
	}

	inWork := make([]bool, nb)
	var work []int
	for bi := nb - 1; bi >= 0; bi-- {
		if c.reach[bi] {
			work = append(work, bi)
			inWork[bi] = true
		}
	}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		b := &c.blocks[bi]

		var st regset
		if terminal(b) {
			st = exit
		}
		for _, s := range b.succs {
			st.union(&in[s])
		}
		out[bi] = st
		for i := b.end - 1; i >= b.start; i-- {
			transfer(i, &st)
		}
		if st != in[bi] {
			in[bi] = st
			for _, p := range b.preds {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return out
}

// onCycle reports whether block bi can reach itself through one or
// more edges, i.e. whether its instructions may execute more than once
// per activation.
func (c *cfg) onCycle(bi int) bool {
	seen := make([]bool, len(c.blocks))
	work := append([]int(nil), c.blocks[bi].succs...)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if s == bi {
			return true
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		work = append(work, c.blocks[s].succs...)
	}
	return false
}
