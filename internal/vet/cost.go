package vet

import (
	"fmt"
	"strings"

	"carsgo/internal/isa"
)

// Static cost analysis (DESIGN.md §9): guaranteed per-activation
// bounds on spill/fill instruction executions and local/shared memory
// traffic, per function and — interprocedurally, along every acyclic
// call path — per kernel. Counts are symbolic polynomials in the
// unknown loop trip count: an instruction at natural-loop nesting
// depth d contributes one execution at the loop^d term. Irreducible
// cycles and recursive call graphs push the bound to the lattice top,
// "unbounded", never to a wrong finite number.

// costMaxDepth caps the symbolic polynomial degree (loop nests plus
// call-site shifting); anything deeper saturates to unbounded.
const costMaxDepth = 16

// costVal is the internal bound: terms[d] executions at loop^d.
// The zero value is the finite bound 0.
type costVal struct {
	unbounded bool
	terms     []int64
}

func (c *costVal) addAt(depth int, n int64) {
	if c.unbounded || n == 0 {
		return
	}
	if depth > costMaxDepth {
		c.unbounded = true
		c.terms = nil
		return
	}
	for len(c.terms) <= depth {
		c.terms = append(c.terms, 0)
	}
	c.terms[depth] = satAdd(c.terms[depth], n)
}

// satAdd adds two non-negative counts with the same 2^60 saturation
// ceiling as satMul, so no sum of charges can overflow int64.
func satAdd(a, b int64) int64 {
	const cap = int64(1) << 60
	if a > cap-b {
		return cap
	}
	return a + b
}

// add folds o into c (sum of independent program points).
func (c *costVal) add(o costVal) {
	if o.unbounded {
		c.unbounded = true
		c.terms = nil
		return
	}
	for d, n := range o.terms {
		c.addAt(d, n)
	}
}

// maxWith raises c to the elementwise maximum of c and o — a sound
// upper bound of either alternative for any non-negative trip count.
func (c *costVal) maxWith(o costVal) {
	if c.unbounded {
		return
	}
	if o.unbounded {
		c.unbounded = true
		c.terms = nil
		return
	}
	for d, n := range o.terms {
		for len(c.terms) <= d {
			c.terms = append(c.terms, 0)
		}
		if n > c.terms[d] {
			c.terms[d] = n
		}
	}
}

// shifted returns the bound of a callee invoked from a call site at
// loop depth by: each term moves up by `by` degrees. by < 0 marks a
// call site with unbounded multiplicity.
func (c costVal) shifted(by int) costVal {
	return c.shiftScaled(by, 1)
}

// shiftScaled is shifted with a concrete trip-count multiplier folded
// in: a call site whose enclosing loops carry derived bounds (range.go)
// shifts by only the residual symbolic degree and scales every term by
// the product of the known bounds. The multiply saturates upward —
// always sound for an upper bound.
func (c costVal) shiftScaled(by int, mult int64) costVal {
	if mult < 1 {
		mult = 1 // zero-value sites scale by the identity
	}
	if c.unbounded || by < 0 {
		if c.zero() {
			return costVal{}
		}
		return costVal{unbounded: true}
	}
	var out costVal
	for d, n := range c.terms {
		out.addAt(d+by, satMul(n, mult))
	}
	return out
}

// satMul multiplies two non-negative counts, saturating at 2^60 so
// downstream additions cannot overflow int64.
func satMul(a, b int64) int64 {
	const cap = int64(1) << 60
	if a == 0 || b == 0 {
		return 0
	}
	if a > cap/b {
		return cap
	}
	return a * b
}

func (c costVal) zero() bool {
	if c.unbounded {
		return false
	}
	for _, n := range c.terms {
		if n != 0 {
			return false
		}
	}
	return true
}

// bound renders the machine-readable form.
func (c costVal) bound() CostBound {
	if c.unbounded {
		return CostBound{Value: -1, Unbounded: true, Sym: "unbounded"}
	}
	var parts []string
	symbolic := false
	for d, n := range c.terms {
		if n == 0 {
			continue
		}
		switch d {
		case 0:
			parts = append(parts, fmt.Sprintf("%d", n))
		case 1:
			symbolic = true
			parts = append(parts, fmt.Sprintf("%d×loop", n))
		default:
			symbolic = true
			parts = append(parts, fmt.Sprintf("%d×loop^%d", n, d))
		}
	}
	if len(parts) == 0 {
		return CostBound{Value: 0, Sym: "0"}
	}
	b := CostBound{Sym: strings.Join(parts, " + ")}
	if symbolic {
		b.Value = -1
	} else {
		b.Value = c.terms[0]
	}
	return b
}

// CostBound is one guaranteed static bound. Value is the exact
// loop-free count; -1 when the bound is symbolic (carries ×loop
// terms) or unbounded. Sym renders the symbolic form ("12",
// "4 + 2×loop", "unbounded"); Unbounded distinguishes the lattice top
// from merely-symbolic bounds.
type CostBound struct {
	Value     int64  `json:"value"`
	Sym       string `json:"sym"`
	Unbounded bool   `json:"unbounded,omitempty"`
}

// Finite reports whether the bound is a plain number usable in a
// dominance comparison against a dynamic counter.
func (b CostBound) Finite() bool { return b.Value >= 0 }

// CostReport carries the four per-activation traffic bounds plus the
// loop-structure facts behind them. Spill counts are spill-flagged
// instruction executions; byte bounds charge 4 bytes per executed
// local (LDL/STL) or shared (LDS/STS) access, spills included —
// matching the dynamic per-warp counters the sanitizer keeps. CARS
// circular-stack trap traffic is runtime-injected, not instruction
// traffic, and is bounded separately by TrapReachable.
type CostReport struct {
	SpillStores CostBound `json:"spillStores"`
	SpillFills  CostBound `json:"spillFills"`
	LocalBytes  CostBound `json:"localBytes"`
	SharedBytes CostBound `json:"sharedBytes"`
	// SharedTxns bounds the bank-serialised shared-memory transactions:
	// every LDS/STS execution charged at its static bank-conflict
	// multiplier, derived from the affine access lattice (backend.go).
	// Filled after the sync pass; zero until then.
	SharedTxns  CostBound `json:"sharedTxns"`
	Loops       int       `json:"loops"`
	Irreducible bool      `json:"irreducible,omitempty"`
}

// smemSite is one shared-memory access with its loop context, recorded
// so the backend pass (backend.go) can charge it at the bank-conflict
// multiplier the sync pass derives for the site.
type smemSite struct {
	index     int
	loopDepth int   // residual symbolic degree; -1: unbounded multiplicity
	mult      int64 // product of derived enclosing trip bounds (≥ 1)
	spill     bool
}

// funcCost is the per-function half of the analysis, stored on the
// funcSummary for the interprocedural pass. The txn/spill-smem
// accumulators are filled late, by fillTxnCosts, once the sync pass
// has produced the per-site address lattice.
type funcCost struct {
	spillStores costVal
	spillFills  costVal
	localBytes  costVal
	sharedBytes costVal
	loops       int
	irreducible bool
	smems       []smemSite

	// Filled by fillTxnCosts (backend.go) after the sync pass.
	sharedTxns    costVal // all LDS/STS × bank multiplier
	userTxns      costVal // non-spill LDS/STS × bank multiplier
	spillTxns     costVal // spill LDS/STS × bank multiplier
	spillSmemByte costVal // spill LDS/STS × 4 bytes
}

func (fc *funcCost) report() *CostReport {
	return &CostReport{
		SpillStores: fc.spillStores.bound(),
		SpillFills:  fc.spillFills.bound(),
		LocalBytes:  fc.localBytes.bound(),
		SharedBytes: fc.sharedBytes.bound(),
		SharedTxns:  fc.sharedTxns.bound(),
		Loops:       fc.loops,
		Irreducible: fc.irreducible,
	}
}

// analyzeCost walks the function once with the loop nesting and
// accumulates the symbolic execution counts, recording each reachable
// call site's loop context in the call-site table. Loops whose trip
// count the range analysis bounded concretely contribute a plain
// multiplier instead of a symbolic ×loop degree, so a fully-counted
// nest yields an exact finite bound.
func (v *funcVet) analyzeCost(li *loopInfo) {
	fc := &v.summary.cost
	fc.loops = li.loops
	fc.irreducible = li.irreducible
	rng := v.summary.rng

	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		d := li.depth[bi]
		if li.unbounded[bi] {
			d = -1
		}
		mult := int64(1)
		if rng != nil && bi < len(rng.blockSym) {
			d = rng.blockSym[bi]
			mult = rng.blockMult[bi]
		}
		charge := func(cv *costVal, n int64) {
			if d < 0 {
				cv.unbounded = true
				cv.terms = nil
			} else {
				cv.addAt(d, satMul(n, mult))
			}
		}
		for i := b.start; i < b.end; i++ {
			in := &v.code[i]
			switch in.Op {
			case isa.OpLdL, isa.OpStL:
				charge(&fc.localBytes, 4)
			case isa.OpLdS, isa.OpStS:
				charge(&fc.sharedBytes, 4)
				fc.smems = append(fc.smems, smemSite{index: i, loopDepth: d, mult: mult, spill: in.Spill})
			case isa.OpCall, isa.OpCallI:
				site := v.summary.site(i)
				site.loopDepth, site.mult = d, mult
				continue
			default:
				continue
			}
			if in.Spill {
				if in.Op.IsStore() {
					charge(&fc.spillStores, 1)
				} else {
					charge(&fc.spillFills, 1)
				}
			}
		}
	}
}

// detached returns c with its own copy of the terms, safe to mutate
// without touching the value it was copied from.
func (c costVal) detached() costVal {
	c.terms = append([]int64(nil), c.terms...)
	return c
}

// kernelCost runs the interprocedural pass for one kernel: the sum
// over every acyclic call path of the per-function bounds, each call
// site shifting its callee's polynomial up by the site's loop depth.
// Indirect sites take the elementwise maximum over their candidate
// set; a call closing a recursive cycle is unbounded in every metric.
func kernelCost(sums []*funcSummary, root int) *CostReport {
	// total is the spill-store, spill-fill, local-byte and shared-byte
	// bounds of a function and its callees, and whether any of it runs
	// in an irreducible cycle.
	type total struct {
		traffic     [4]costVal
		irreducible bool
	}
	top := costVal{unbounded: true}
	own := func(fi int) total {
		s := &sums[fi].cost
		return total{[4]costVal{s.spillStores.detached(), s.spillFills.detached(),
			s.localBytes.detached(), s.sharedBytes.detached()}, s.irreducible}
	}
	join := func(a, b total) total {
		for k := range a.traffic {
			a.traffic[k] = a.traffic[k].detached()
			a.traffic[k].maxWith(b.traffic[k])
		}
		a.irreducible = a.irreducible || b.irreducible
		return a
	}
	site := func(t total, s *callSite, callee total) total {
		for k := range t.traffic {
			t.traffic[k].add(callee.traffic[k].shiftScaled(s.loopDepth, s.mult))
		}
		t.irreducible = t.irreducible || callee.irreducible
		return t
	}
	t := bottomUp(sums, root, total{traffic: [4]costVal{top, top, top, top}}, own, join, site)
	fc := funcCost{spillStores: t.traffic[0], spillFills: t.traffic[1], localBytes: t.traffic[2],
		sharedBytes: t.traffic[3], loops: sums[root].cost.loops, irreducible: t.irreducible}
	return fc.report()
}
