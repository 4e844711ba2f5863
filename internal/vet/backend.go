package vet

import (
	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
)

// Cross-backend spill-policy lattice (DESIGN.md §12): static per-level
// cost and occupancy rows for the three spill backends —
//
//   - cars:    register stacks; spills are renames, no smem traffic
//   - smem:    RegDem-style shared-memory spilling; every spill pays
//              the banked shared path and the frame taxes occupancy
//   - rfcache: a per-thread register window absorbing the hottest
//              (stack-top) spill slots; the rest falls through to smem
//
// Each backend's occupancy rows mirror the simulator's admission rule
// exactly (register-limited CARS, smem-limited shared spilling,
// window-register-limited RF-cache), and the per-level traffic bounds
// reuse the interprocedural cost algebra of cost.go with two backend
// refinements derived from the sync pass's affine access lattice:
// static bank-conflict multipliers per LDS/STS site, and a static
// spill-depth coverage map for the RF-cache window.

// smemBankCount mirrors the simulator's shared-memory geometry: 32
// banks of 4-byte words, the worst-case serialisation of one access.
const smemBankCount = 32

// gcdBanks returns gcd(s, 32) for a positive word stride s: the number
// of distinct words a full warp drives into one bank when lanes stride
// by s words (lanes l and l+32/gcd collide in the same bank at
// distinct words).
func gcdBanks(s int64) int64 {
	a, b := s%smemBankCount, int64(smemBankCount)
	if a < 0 {
		a = -a
	}
	if a == 0 {
		return smemBankCount
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// bankMult is the static bank-conflict multiplier of one shared-memory
// access site: an upper bound on the serialised transactions any
// execution of the site costs (max over banks of distinct words among
// the active lanes; same-word lanes broadcast). A lane-affine address
// with byte stride cL costs gcd(cL/4, 32); a uniform address
// broadcasts for 1. Spill sites whose lattice form degraded still
// stride by exactly the per-thread frame — the ABI's R0 discipline
// (only uniform IADD adjustments, enforced by the mode-mismatch
// checks) guarantees it — so they fall back to the frame stride rather
// than the full 32.
func bankMult(addr aval, spillStrideBytes int64, spill bool) int64 {
	stride := int64(-1)
	switch addr.kind {
	case avUniform:
		stride = 0
	case avAffine:
		stride = addr.cL
	default:
		if spill {
			stride = spillStrideBytes
		}
	}
	if stride < 0 && spill {
		stride = spillStrideBytes
	}
	switch {
	case stride == 0:
		return 1
	case stride > 0 && stride%4 == 0:
		return gcdBanks(stride / 4)
	case stride < 0 && stride%4 == 0:
		return gcdBanks(-stride / 4)
	}
	return smemBankCount
}

// fillTxnCosts charges every recorded shared-memory site (cost.go's
// smems) at its bank-conflict multiplier from the sync pass's address
// lattice, filling the late funcCost accumulators the backend rows and
// the SharedTxns bound are built from. Sites the sync pass never
// reached charge the worst case.
func fillTxnCosts(p *isa.Program, sums []*funcSummary, sp *syncProgram) {
	spillStride := int64(p.SmemSpillPerThread)
	for fi := range sums {
		fc := &sums[fi].cost
		if len(fc.smems) == 0 {
			continue
		}
		mults := map[int]int64{}
		if fi < len(sp.funcs) {
			for _, t := range sp.funcs[fi].txs {
				if m := bankMult(t.addr, spillStride, t.spill); m > mults[t.index] {
					mults[t.index] = m
				}
			}
		}
		for _, s := range fc.smems {
			m, ok := mults[s.index]
			if !ok {
				m = smemBankCount
				if s.spill {
					m = bankMult(topVal(), spillStride, true)
				}
			}
			charge := func(cv *costVal, n int64) {
				if s.loopDepth < 0 {
					cv.unbounded = true
					cv.terms = nil
				} else {
					cv.addAt(s.loopDepth, satMul(n, max64(1, s.mult)))
				}
			}
			charge(&fc.sharedTxns, m)
			if s.spill {
				charge(&fc.spillTxns, m)
				charge(&fc.spillSmemByte, 4)
			} else {
				charge(&fc.userTxns, m)
			}
		}
	}
}

// spillDepths computes, per function reachable from the kernel, the
// worst-case cumulative spill-frame depth in bytes: the maximum over
// call paths of the enclosing activations' shared-spill frames,
// including the function's own (4 bytes per callee-saved register,
// matching abi.sizeSmemSpill). Every spill access a function executes
// sits at most this deep below the per-thread frame top, so a window
// of at least this many bytes statically absorbs all of them. -1 marks
// unbounded depth (recursion).
func spillDepths(an *callgraph.Analysis) map[int]int {
	depths := map[int]int{}
	if an.Cyclic {
		for fi := range an.Nodes {
			depths[fi] = -1
		}
		return depths
	}
	var walk func(fi, acc int)
	walk = func(fi, acc int) {
		n := an.Nodes[fi]
		c := acc + 4*n.Func.CalleeSaved
		if d, ok := depths[fi]; ok && d >= c {
			return // already visited at least this deep: no new info below
		}
		depths[fi] = c
		for _, ti := range n.Callees {
			walk(ti, c)
		}
	}
	walk(an.Root, 0)
	return depths
}

// kernelResidual runs the interprocedural path algebra of kernelCost
// over the residual shared-memory traffic: user transactions always,
// spill bytes and spill transactions only for functions the coverage
// predicate does not absorb. Recursion tops out at unbounded.
func kernelResidual(sums []*funcSummary, root int, covered func(fi int) bool) (spillBytes, txns costVal) {
	type resid struct{ spillBytes, txns costVal }
	top := costVal{unbounded: true}
	own := func(fi int) resid {
		s := &sums[fi].cost
		var t resid
		t.txns.add(s.userTxns)
		if !covered(fi) {
			t.spillBytes.add(s.spillSmemByte)
			t.txns.add(s.spillTxns)
		}
		return t
	}
	join := func(a, b resid) resid {
		a.spillBytes, a.txns = a.spillBytes.detached(), a.txns.detached()
		a.spillBytes.maxWith(b.spillBytes)
		a.txns.maxWith(b.txns)
		return a
	}
	site := func(t resid, s *callSite, callee resid) resid {
		t.spillBytes.add(callee.spillBytes.shiftScaled(s.loopDepth, s.mult))
		t.txns.add(callee.txns.shiftScaled(s.loopDepth, s.mult))
		return t
	}
	r := bottomUp(sums, root, resid{top, top}, own, join, site)
	return r.spillBytes, r.txns
}

// residEval carries the interprocedural state needed to evaluate a
// kernel's residual traffic bounds at any RF-cache window after
// Report has returned. Plain data only — no closures — so two reports
// built from identical programs compare reflect.DeepEqual.
type residEval struct {
	sums   []*funcSummary
	root   int
	depths map[int]int
}

// at returns the residual spill-byte and transaction bounds with an
// RF-cache window of windowWords words (<= 0: no absorption, the pure
// shared-spill backend).
func (r *residEval) at(windowWords int) (spillBytes, txns CostBound) {
	covered := func(fi int) bool {
		if windowWords <= 0 {
			return false
		}
		d, ok := r.depths[fi]
		return ok && d >= 0 && d <= 4*windowWords
	}
	sb, tx := kernelResidual(r.sums, r.root, covered)
	return sb.bound(), tx.bound()
}

// attachResiduals stashes a per-kernel residual evaluator on each
// KernelReport (the unexported resid field) and fills the kernel-level
// SharedTxns bound. Report calls it once the sync pass has populated
// the txn accumulators.
func attachResiduals(rep *ProgramReport, sums []*funcSummary, graphs map[string]*callgraph.Analysis) {
	for i := range rep.Kernels {
		kr := &rep.Kernels[i]
		an := graphs[kr.Kernel]
		if an == nil {
			continue
		}
		kr.resid = &residEval{sums: sums, root: an.Root, depths: spillDepths(an)}
		if kr.Perf != nil {
			_, kr.Perf.Cost.SharedTxns = kr.resid.at(-1)
		}
	}
}

// BackendLevel is one (backend, level) cell of the spill-policy
// lattice: the admission-exact occupancy row plus the backend's static
// traffic refinement at that level. SpillSmemBytes bounds the residual
// spill traffic that reaches shared memory (zero under CARS, full
// under pure shared spilling, the statically-uncovered remainder under
// an RF-cache window); SmemTxns bounds the bank-serialised
// transactions (user accesses plus residual spills). Covered marks a
// level with no residual spill path at all: a trap-free CARS level, or
// a window absorbing every reachable spill site.
type BackendLevel struct {
	LevelOccupancy
	SpillSmemBytes CostBound `json:"spillSmemBytes"`
	SmemTxns       CostBound `json:"smemTxns"`
	Covered        bool      `json:"covered"`
}

// BackendPerf is one backend's column of the lattice for a kernel: its
// level ladder and the advisor's pick within it.
type BackendPerf struct {
	Backend  string         `json:"backend"`
	HighFree bool           `json:"highFree,omitempty"`
	Levels   []BackendLevel `json:"levels"`
	Advice   *Advice        `json:"advice,omitempty"`
}

// windowPlan builds the RF-cache window ladder for one kernel: Low is
// the largest single spill frame (one activation's saves stay in
// registers), doubling up to High, the full interprocedural frame
// depth (every spill absorbed). Degenerate zero-spill kernels get a
// single zero-word level.
func windowPlan(m MachineParams, p *isa.Program, an *callgraph.Analysis, l LaunchShape) *cars.Plan {
	maxFrame := 0
	for _, n := range an.Nodes {
		if cs := n.Func.CalleeSaved; cs > maxFrame {
			maxFrame = cs
		}
	}
	return cars.NewWindowPlan(an.MaxRegs, maxFrame, p.SmemSpillPerThread/4, m.MaxWarpsOther(shapeOf(p, l)), m.RegFileSlots)
}

// WindowPlanFor builds the RF-cache window ladder AnalyzePerf models
// for one launch shape — exported so the dynamic differential
// (internal/san) can force the simulator through the very same
// windows.
func (m MachineParams) WindowPlanFor(p *isa.Program, l LaunchShape) (*cars.Plan, error) {
	an, err := callgraph.Analyze(p, l.Kernel)
	if err != nil {
		return nil, err
	}
	return windowPlan(m, p, an, l), nil
}

// analyzeBackends attaches the backend lattice rows for one launch
// shape. A CARS-mode analysis realises only the cars backend; a
// shared-spill-mode analysis realises both the smem backend (one
// design point: the base allocation) and the rfcache ladder. The
// traffic refinements need the residual closure Report stashes;
// hand-built reports get occupancy-only rows.
func analyzeBackends(kr *KernelReport, p *isa.Program, m MachineParams, shape LaunchShape, an *callgraph.Analysis) {
	kr.Perf.Backends = kr.Perf.Backends[:0]
	mode := modeOf(p)
	zero := costVal{}.bound()
	switch {
	case m.CARS && mode == modeCARS:
		bp := BackendPerf{Backend: cars.BackendCARS.String(), HighFree: false}
		demand := kr.StackSlots
		for _, o := range kr.Perf.Occupancy {
			bl := BackendLevel{LevelOccupancy: o, SpillSmemBytes: zero, SmemTxns: zero}
			if kr.resid != nil {
				// CARS spills are register renames: no spill LDS/STS
				// exist, so the residual is the user transaction bound.
				bl.SpillSmemBytes, bl.SmemTxns = kr.resid.at(-1)
			}
			bl.Covered = demand >= 0 && demand <= o.StackSlots
			bp.Levels = append(bp.Levels, bl)
		}
		if adv := kr.Perf.Advice; adv != nil {
			bp.HighFree = adv.HighFree
			bp.Advice = adv
		}
		kr.Perf.Backends = append(kr.Perf.Backends, bp)

	case !m.CARS && mode == modeSmem:
		// Shared-spill backend: a single design point — the base
		// allocation row AnalyzePerf just computed — paying the full
		// spill traffic through the banked shared path.
		if len(kr.Perf.Occupancy) == 0 {
			return
		}
		sb := BackendLevel{LevelOccupancy: kr.Perf.Occupancy[0], SpillSmemBytes: zero, SmemTxns: zero}
		if kr.resid != nil {
			sb.SpillSmemBytes, sb.SmemTxns = kr.resid.at(-1)
		}
		sb.Covered = kr.resid != nil && sb.SpillSmemBytes.Value == 0
		smem := BackendPerf{Backend: cars.BackendSmemSpill.String()}
		smem.Levels = []BackendLevel{sb}
		smem.Advice = adviseBackend(kr.Kernel, smem.Levels, false)
		kr.Perf.Backends = append(kr.Perf.Backends, smem)

		// RF-cache backend: the window ladder. The simulator charges the
		// window as base registers (RoundRegs(MaxRegs + W)) and admits
		// whole blocks only.
		plan := windowPlan(m, p, an, shape)
		rfc := BackendPerf{Backend: cars.BackendRFCache.String(), HighFree: plan.HighFree}
		s := shapeOf(p, shape)
		for _, lvl := range plan.Levels {
			o := levelAt(m, s, lvl.Name(), lvl.StackSlots, m.RoundRegs(an.MaxRegs+lvl.StackSlots), false)
			bl := BackendLevel{LevelOccupancy: o, SpillSmemBytes: zero, SmemTxns: zero}
			if kr.resid != nil {
				bl.SpillSmemBytes, bl.SmemTxns = kr.resid.at(lvl.StackSlots)
			}
			bl.Covered = kr.resid != nil && bl.SpillSmemBytes.Value == 0
			rfc.Levels = append(rfc.Levels, bl)
		}
		rfc.Advice = adviseBackend(kr.Kernel, rfc.Levels, plan.HighFree)
		kr.Perf.Backends = append(kr.Perf.Backends, rfc)
	}
}
