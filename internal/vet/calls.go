package vet

import (
	"slices"

	"carsgo/internal/isa"
)

// The program model the interprocedural passes share (DESIGN.md §6):
// funcVet.run builds each function's CFG, register window and
// call-site table once, and every pass that follows a call — stack
// demand, liveness, cost, residual traffic, value ranges, the sync
// and race analyses — reads that table instead of resolving call
// targets itself.

// callSite is one CALL or CALLI of a function, in instruction order.
// The first fields come from the code and the link metadata; the rest
// are the per-site facts the intraprocedural passes record, zero at
// sites in unreachable blocks.
type callSite struct {
	index     int  // instruction index
	ordinal   int  // ordinal among the function's CALLI sites; -1 = direct CALL
	reachable bool // the site's block is reachable from the entry

	// callees are the candidate callee indices: Callee for a direct
	// call, the site's IndirectTargets set (in order) for an indirect
	// one. unresolved marks a site with no candidates — an empty or
	// missing candidate set, or a pre-ABI name outside the vetted
	// modules — about which the sync pass can assume nothing.
	callees    []int
	unresolved bool

	depth     int   // CARS push depth at the call (checkStack)
	live      int   // callee-saved values live across the call (liveness)
	loopDepth int   // residual symbolic loop degree; -1: unbounded multiplicity (cost)
	mult      int64 // product of derived enclosing trip bounds (cost)
}

// indexCalls builds the function's call-site table. Linked code
// resolves its candidates here; pre-ABI candidates are names across a
// module set, which Modules resolves (resolveModuleCalls).
func (v *funcVet) indexCalls() {
	ord := 0
	for i := range v.code {
		in := &v.code[i]
		if !in.Op.IsCall() {
			continue
		}
		s := callSite{index: i, ordinal: -1, reachable: v.cfg.reach[v.cfg.blockOf[i]]}
		if in.Op == isa.OpCallI {
			s.ordinal = ord
			ord++
		}
		if v.linked {
			switch {
			case s.ordinal < 0:
				s.callees = []int{in.Callee}
			case s.ordinal < len(v.indirect):
				s.callees = v.indirect[s.ordinal]
			}
			s.unresolved = len(s.callees) == 0
		}
		v.summary.sites = append(v.summary.sites, s)
	}
}

// site returns the table entry of the call at instruction i.
func (s *funcSummary) site(i int) *callSite {
	k, _ := slices.BinarySearchFunc(s.sites, i, func(c callSite, i int) int { return c.index - i })
	return &s.sites[k]
}

// resolveModuleCalls resolves pre-ABI call sites by name across the
// vetted module set, a later definition of a name shadowing an
// earlier one. A direct call names its CallNames slot; an indirect
// site resolves only when every candidate name does.
func resolveModuleCalls(vets []*funcVet) {
	byName := make(map[string]int, len(vets))
	for fi, v := range vets {
		byName[v.name] = fi
	}
	for _, v := range vets {
		f := v.preABI
		for k := range v.summary.sites {
			s := &v.summary.sites[k]
			if s.ordinal < 0 {
				name := ""
				if c := v.code[s.index].Callee; c >= 0 && c < len(f.CallNames) {
					name = f.CallNames[c]
				}
				if ti, ok := byName[name]; ok {
					s.callees = []int{ti}
				}
			} else if s.ordinal < len(f.IndirectTargets) {
				for _, name := range f.IndirectTargets[s.ordinal] {
					ti, ok := byName[name]
					if !ok {
						s.callees = nil
						break
					}
					s.callees = append(s.callees, ti)
				}
			}
			s.unresolved = len(s.callees) == 0
		}
	}
}

// bottomUp computes root's value over the call graph below it, leaves
// first: own gives a function's value before its calls, and every
// reachable call site with candidates folds the join of its
// candidates' values into it through site. A call that closes a cycle
// yields cycle. The memo lives for one root, so no root's value
// depends on which roots were walked before it.
func bottomUp[T any](sums []*funcSummary, root int, cycle T,
	own func(fi int) T, join func(a, b T) T, site func(acc T, s *callSite, callee T) T) T {
	const (
		unvisited = iota
		onStack
		done
	)
	state := make([]uint8, len(sums))
	memo := make([]T, len(sums))
	var visit func(fi int) T
	visit = func(fi int) T {
		switch state[fi] {
		case done:
			return memo[fi]
		case onStack:
			return cycle
		}
		state[fi] = onStack
		acc := own(fi)
		for k := range sums[fi].sites {
			s := &sums[fi].sites[k]
			if !s.reachable || len(s.callees) == 0 {
				continue
			}
			callee := visit(s.callees[0])
			for _, ti := range s.callees[1:] {
				callee = join(callee, visit(ti))
			}
			acc = site(acc, s, callee)
		}
		state[fi], memo[fi] = done, acc
		return acc
	}
	return visit(root)
}

// reachFrom lists, in index order, root and every function a call
// site below it may call. It follows sites in unreachable blocks too,
// as callgraph.Analyze does, so the race verdicts and range aggregates
// cover every function the link can reach.
func reachFrom(sums []*funcSummary, root int) []int {
	seen := make([]bool, len(sums))
	seen[root] = true
	order := []int{root}
	for k := 0; k < len(order); k++ {
		for _, s := range sums[order[k]].sites {
			for _, ti := range s.callees {
				if !seen[ti] {
					seen[ti] = true
					order = append(order, ti)
				}
			}
		}
	}
	slices.Sort(order)
	return order
}
