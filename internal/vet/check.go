package vet

import (
	"fmt"
	"sort"

	"carsgo/internal/callgraph"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// funcSummary feeds the interprocedural passes and the
// machine-readable FuncReport.
type funcSummary struct {
	ok       bool       // stack analysis completed without errors
	maxDepth int        // largest net push depth at any point
	sites    []callSite // every CALL/CALLI, in instruction order (calls.go)

	spillBytes int         // static spill-store traffic bound; -1 = unbounded
	maxLive    int         // peak live-register pressure
	ranges     []LiveRange // per-register live spans
	cost       funcCost    // loop-aware traffic bounds (cost.go)

	// rng carries the value-range/trip-count facts (range.go) and
	// blockStarts the block-id -> first-instruction mapping the range
	// report needs to name loop headers.
	rng         *funcRanges
	blockStarts []int
}

// funcVet verifies one function. It serves both linked functions and
// pre-ABI bodies (preABI non-nil): pre-ABI code carries no
// prologue/epilogue yet, so the callee-saved set counts as implicitly
// preserved and the spill/stack checks do not apply.
type funcVet struct {
	name        string
	code        []isa.Instruction
	isKernel    bool
	calleeSaved int
	frameBytes  int
	smemFrame   int
	mode        progMode
	linked      bool
	indirect    [][]int // linked CALLI candidate sets (isa.Function.IndirectTargets)
	preABI      *kir.Func

	cfg     *cfg
	window  int // registers the abstract interpreters track (regWindow)
	diags   []Diagnostic
	summary funcSummary
	// ranges is the range analysis's store, shared with the other
	// functions vetted alongside this one; nil allocates a fresh one.
	ranges *rangeScratch
}

func (v *funcVet) diag(sev Severity, idx int, check Check, format string, args ...any) {
	v.diags = append(v.diags, Diagnostic{
		Sev: sev, Func: v.name, Index: idx, Check: check,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (v *funcVet) run() {
	if len(v.code) == 0 {
		v.diag(SevError, -1, CheckStructure, "function has no code")
		return
	}
	v.cfg = buildCFG(v.code)
	v.window = regWindow(v.code, v.calleeSaved)
	v.indexCalls()
	v.checkStructure()
	v.checkUninitReads()
	if !v.isKernel {
		v.checkPreserved()
	}
	// Value-range / trip-count abstract interpretation (range.go) runs
	// for pre-ABI and linked code alike: its dead-branch, OOB, and
	// devirtualization facts license the optimizer's rewrites on kir
	// modules, and its trip bounds collapse the linked cost polynomials.
	li := v.cfg.analyzeLoops()
	v.analyzeRanges(li)
	if v.preABI != nil {
		v.checkModuleCallSites()
		v.checkDeadWindow()
		return
	}
	switch v.mode {
	case modeCARS:
		v.checkStack()
	default:
		v.checkSpills()
		v.spillBound()
		v.summary.ok = true
	}
	// Liveness runs after the stack analysis so CARS call sites carry
	// their push depths; it feeds the report and the over-wide-push
	// and live-across checks.
	v.analyzeLiveness()
	// Loop-aware cost bounds (cost.go) for the perf report, sharpened
	// by the range pass's concrete trip counts.
	v.analyzeCost(li)
}

// checkStructure flags shape problems: control running past the end
// of the function, unreachable blocks, instructions illegal under the
// ABI mode, kernels with return instructions or callee-saved
// declarations, and ops the simulator does not implement.
func (v *funcVet) checkStructure() {
	if v.isKernel && v.calleeSaved != 0 {
		v.diag(SevError, -1, CheckStructure,
			"kernel declares %d callee-saved registers; kernels own the full frame", v.calleeSaved)
	}
	for bi := range v.cfg.blocks {
		b := &v.cfg.blocks[bi]
		if !v.cfg.reach[bi] {
			v.diag(SevWarning, b.start, CheckUnreachable, "unreachable code")
			continue
		}
		if b.pastEnd {
			v.diag(SevError, b.end-1, CheckStructure,
				"control flow runs past the end of the function (no RET/EXIT on this path)")
		}
	}
	for i := range v.code {
		in := &v.code[i]
		switch in.Op {
		case isa.OpSSY, isa.OpSync:
			v.diag(SevWarning, i, CheckStructure,
				"%s is not implemented by the simulator (the builder emits predicated BRA instead)", in.Op)
		case isa.OpRet:
			if v.isKernel {
				v.diag(SevError, i, CheckStructure,
					"RET in kernel body: kernels terminate with EXIT")
			}
		}
		if v.preABI != nil {
			if in.Op.IsCARSOp() {
				v.diag(SevError, i, CheckModeMismatch,
					"%s in pre-ABI code: stack micro-ops are inserted by the abi pass", in.Op)
			}
			if in.Spill {
				v.diag(SevError, i, CheckModeMismatch,
					"spill-flagged %s in pre-ABI code: spills are inserted by the abi pass", in.Op)
			}
			continue
		}
		switch v.mode {
		case modeCARS:
			if in.Spill {
				v.diag(SevError, i, CheckModeMismatch,
					"spill-flagged %s in a CARS program: CARS preserves registers by renaming", in.Op)
			}
		case modeBaseline:
			if in.Op.IsCARSOp() {
				v.diag(SevError, i, CheckModeMismatch,
					"CARS micro-op %s in a baseline program", in.Op)
			}
			if in.Spill && in.Op != isa.OpStL && in.Op != isa.OpLdL {
				v.diag(SevError, i, CheckModeMismatch,
					"spill-flagged %s in a baseline program: baseline spills are STL/LDL", in.Op)
			}
		case modeSmem:
			if in.Op.IsCARSOp() {
				v.diag(SevError, i, CheckModeMismatch,
					"CARS micro-op %s in a shared-spill program", in.Op)
			}
			if in.Spill && in.Op != isa.OpStS && in.Op != isa.OpLdS {
				v.diag(SevError, i, CheckModeMismatch,
					"spill-flagged %s in a shared-spill program: spills go to shared memory", in.Op)
			}
		}
	}
}

// checkUninitReads runs the must-defined analysis. At entry R0..R15
// are defined (scratch, stack pointer, arguments); the callee-saved
// registers R16.. are not — under CARS they are renamed to fresh
// physical registers by PUSH, so reading one before writing it
// observes different values under different ABI modes, breaking the
// transparency invariant. A spill store's data operand is exempt: the
// prologue legitimately saves the caller's R16+k.
func (v *funcVet) checkUninitReads() {
	var entry regset
	entry.addRange(0, isa.FirstCalleeSaved)
	transfer := func(i int, s *regset) {
		in := &v.code[i]
		switch in.Op {
		case isa.OpPush:
			// Renamed slots hold no value until written.
			s.removeRange(isa.FirstCalleeSaved, int(in.Imm))
		case isa.OpPop:
			// The caller's values reappear, as a baseline fill would
			// restore them.
			s.addRange(isa.FirstCalleeSaved, int(in.Imm))
		}
		if in.WritesReg() {
			s.add(in.Dst)
		}
	}
	in := v.cfg.forwardMust(entry, transfer)

	var buf [3]uint8
	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := in[bi]
		for i := b.start; i < b.end; i++ {
			ins := &v.code[i]
			for _, r := range ins.Reads(buf[:0]) {
				if ins.Spill && ins.Op.IsStore() && r == ins.SrcC {
					continue
				}
				if st.has(r) {
					continue
				}
				sev := SevWarning
				if !v.isKernel && r >= isa.FirstCalleeSaved {
					sev = SevError
				}
				v.diag(sev, i, CheckUninitRead,
					"%s reads R%d, which is not defined on every path here", ins.Op, r)
			}
			transfer(i, &st)
		}
	}
}

// checkPreserved verifies callee-saved discipline for device
// functions: a write to R16+ is legal only after the register was
// preserved — spilled by a store in baseline/shared-spill code,
// pushed in CARS code, or inside the declared callee-saved window for
// pre-ABI code (the abi pass preserves exactly that window). Spill
// fills are the restores themselves and are always legal.
func (v *funcVet) checkPreserved() {
	var entry regset
	if v.preABI != nil {
		entry.addRange(isa.FirstCalleeSaved, v.calleeSaved)
	}
	transfer := func(i int, s *regset) {
		in := &v.code[i]
		switch {
		case in.Spill && in.Op.IsStore():
			s.add(in.SrcC)
		case in.Op == isa.OpPush:
			s.addRange(isa.FirstCalleeSaved, int(in.Imm))
		case in.Op == isa.OpPop:
			s.removeRange(isa.FirstCalleeSaved, int(in.Imm))
		}
	}
	in := v.cfg.forwardMust(entry, transfer)
	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := in[bi]
		for i := b.start; i < b.end; i++ {
			ins := &v.code[i]
			if ins.WritesReg() && ins.Dst >= isa.FirstCalleeSaved &&
				!(ins.Spill && ins.Op.IsLoad()) && !st.has(ins.Dst) {
				what := "spilled or pushed"
				if v.preABI != nil {
					what = fmt.Sprintf("inside the declared callee-saved window (CalleeSaved=%d)", v.calleeSaved)
				}
				v.diag(SevError, i, CheckCalleeSaved,
					"clobbers caller's R%d: written before being %s", ins.Dst, what)
			}
			transfer(i, &st)
		}
	}
}

// checkSpills verifies baseline / shared-spill pairing: every spill
// slot stays inside the frame, every fill has a matching store, every
// spilled register the body clobbers is restored (must-filled) on
// every return path, and stores that are never filled back are dead.
func (v *funcVet) checkSpills() {
	type slot struct {
		reg uint8
		off int32
	}
	stores := map[slot]bool{}
	var storedRegs, filledRegs, clobbered regset
	frame := int32(v.frameBytes)
	frameName := fmt.Sprintf("%dB local frame", v.frameBytes)
	if v.mode == modeSmem {
		frame = int32(v.smemFrame)
		frameName = fmt.Sprintf("%dB shared spill frame", v.smemFrame)
	}

	checkBounds := func(i int, off int32) {
		if off < 0 || off+4 > frame {
			v.diag(SevError, i, CheckSpillPair,
				"spill slot [%d,%d) lies outside the %s", off, off+4, frameName)
		}
	}
	for i := range v.code {
		in := &v.code[i]
		if !in.Spill {
			if in.WritesReg() && in.Dst >= isa.FirstCalleeSaved {
				clobbered.add(in.Dst)
			}
			continue
		}
		if in.Op.IsStore() {
			stores[slot{in.SrcC, in.Imm}] = true
			storedRegs.add(in.SrcC)
			checkBounds(i, in.Imm)
		} else if in.Op.IsLoad() {
			filledRegs.add(in.Dst)
			checkBounds(i, in.Imm)
			if !stores[slot{in.Dst, in.Imm}] {
				v.diag(SevError, i, CheckSpillPair,
					"fills R%d from offset %d without a matching spill store", in.Dst, in.Imm)
			}
		}
	}
	unmodified := storedRegs
	unmodified.subtract(&clobbered)
	unmodified.forEach(func(r uint8) {
		if !filledRegs.has(r) {
			v.diag(SevWarning, -1, CheckDeadSpill,
				"R%d is spilled but never filled back nor clobbered: dead spill store", r)
			return
		}
		// The body restores a value it never modified: the whole
		// save/restore pair is dead memory traffic.
		v.diag(SevWarning, -1, CheckDeadSave,
			"R%d is saved and restored but never modified: the spill/fill pair is dead traffic", r)
	})

	// Must-filled: on every path to RET, each spilled register the
	// body clobbers must have been filled after its last clobber.
	mustFill := storedRegs
	mustFill.intersect(&clobbered)
	transfer := func(i int, s *regset) {
		in := &v.code[i]
		switch {
		case in.Spill && in.Op.IsLoad():
			s.add(in.Dst)
		case in.WritesReg():
			s.remove(in.Dst)
		}
	}
	in := v.cfg.forwardMust(regset{}, transfer)
	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := in[bi]
		for i := b.start; i < b.end; i++ {
			if v.code[i].Op == isa.OpRet {
				lost := mustFill
				lost.subtract(&st)
				lost.forEach(func(r uint8) {
					v.diag(SevError, i, CheckCalleeSaved,
						"R%d is spilled and clobbered but not restored on this return path", r)
				})
			}
			transfer(i, &st)
		}
	}
}

// checkStack verifies CARS stack discipline: push/pop balance on
// every path, consistent depth at joins, PUSHRFP immediately before
// every call (and only before calls), no branch entering a call past
// its PUSHRFP, and a push depth within the declared callee-saved
// count — the linker derives the FRU from that declaration, so
// exceeding it would make every caller's reservation too small.
func (v *funcVet) checkStack() {
	v.summary.ok = true
	for i := range v.code {
		in := &v.code[i]
		switch in.Op {
		case isa.OpCall, isa.OpCallI:
			if i == 0 || v.code[i-1].Op != isa.OpPushRFP {
				v.diag(SevError, i, CheckPushRFP,
					"%s is not immediately preceded by PUSHRFP: the caller's frame pointer is lost", in.Op)
				v.summary.ok = false
			}
		case isa.OpPushRFP:
			if i+1 >= len(v.code) || !v.code[i+1].Op.IsCall() {
				v.diag(SevError, i, CheckPushRFP, "PUSHRFP not followed by a call")
				v.summary.ok = false
			}
		case isa.OpBra:
			if in.Target < len(v.code) && v.code[in.Target].Op.IsCall() {
				v.diag(SevError, i, CheckPushRFP,
					"branch enters the call at %d past its PUSHRFP", in.Target)
				v.summary.ok = false
			}
		}
	}

	// Per-block depth propagation: every path must agree.
	const unknown = -1 << 30
	depthIn := make([]int, len(v.cfg.blocks))
	for bi := range depthIn {
		depthIn[bi] = unknown
	}
	depthIn[0] = 0
	work := []int{0}
	joinReported := false
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		b := &v.cfg.blocks[bi]
		d := depthIn[bi]
		for i := b.start; i < b.end; i++ {
			in := &v.code[i]
			switch in.Op {
			case isa.OpPush:
				d += int(in.Imm)
				if d > v.summary.maxDepth {
					v.summary.maxDepth = d
				}
			case isa.OpPop:
				d -= int(in.Imm)
				if d < 0 {
					v.diag(SevError, i, CheckStackBalance,
						"POP %d exceeds the registers pushed on this path", in.Imm)
					v.summary.ok = false
					d = 0
				}
			case isa.OpRet:
				if d != 0 {
					v.diag(SevError, i, CheckStackBalance,
						"register stack depth is %d at RET: pushes and pops are unbalanced", d)
					v.summary.ok = false
				}
			case isa.OpCall, isa.OpCallI:
				v.summary.site(i).depth = d
			}
		}
		for _, s := range b.succs {
			switch depthIn[s] {
			case unknown:
				depthIn[s] = d
				work = append(work, s)
			case d:
			default:
				if !joinReported {
					v.diag(SevError, v.cfg.blocks[s].start, CheckStackBalance,
						"inconsistent register-stack depth at join (%d vs %d)", depthIn[s], d)
					joinReported = true
					v.summary.ok = false
				}
			}
		}
	}
	if v.summary.maxDepth > v.calleeSaved {
		v.diag(SevError, -1, CheckStackDepth,
			"pushes %d register-stack slots but declares CalleeSaved=%d: the linked FRU underestimates the frame",
			v.summary.maxDepth, v.calleeSaved)
		v.summary.ok = false
	}
}

// checkModuleCallSites validates pre-ABI call metadata: OpCall.Callee
// indexes CallNames, each OpCallI has a candidate set, and MovFuncIdx
// fixups point at real instructions.
func (v *funcVet) checkModuleCallSites() {
	f := v.preABI
	indirects := 0
	for _, s := range v.summary.sites {
		if s.ordinal < 0 {
			if c := v.code[s.index].Callee; c < 0 || c >= len(f.CallNames) {
				v.diag(SevError, s.index, CheckCallSite,
					"CALL references symbol slot %d of %d", c, len(f.CallNames))
			}
			continue
		}
		indirects++
		if s.ordinal >= len(f.IndirectTargets) {
			v.diag(SevError, s.index, CheckCallSite,
				"indirect call site %d has no candidate target set", s.ordinal)
		} else if len(f.IndirectTargets[s.ordinal]) == 0 {
			v.diag(SevError, s.index, CheckCallSite,
				"indirect call site %d has an empty candidate set", s.ordinal)
		}
	}
	if indirects < len(f.IndirectTargets) {
		v.diag(SevError, -1, CheckCallSite,
			"%d indirect target sets declared but only %d CALLI sites exist",
			len(f.IndirectTargets), indirects)
	}
	for idx := range f.FuncRefs {
		if idx < 0 || idx >= len(v.code) {
			v.diag(SevError, -1, CheckCallSite,
				"function-reference fixup at instruction %d is out of range", idx)
		}
	}
}

// kernelGraphs runs callgraph.Analyze once per kernel; the stack-
// demand check and the residual-traffic closures share the result.
// Validate ties every kernel name to a kernel function, so Analyze
// cannot fail on a validated program; an error would still surface as
// a diagnostic rather than vanish.
func kernelGraphs(p *isa.Program) (map[string]*callgraph.Analysis, []Diagnostic) {
	graphs := make(map[string]*callgraph.Analysis, len(p.Kernels))
	var diags []Diagnostic
	for name := range p.Kernels {
		an, err := callgraph.Analyze(p, name)
		if err != nil {
			diags = append(diags, Diagnostic{Sev: SevError, Func: name, Index: -1,
				Check: CheckStackDepth, Msg: err.Error()})
			continue
		}
		graphs[name] = an
	}
	return graphs, diags
}

// checkStackDemand compares, per kernel, the call-graph-wide
// worst-case register-stack demand (from the real push depths at each
// call site) against the high-watermark slot budget the allocator
// derives from declared FRUs, and builds the per-kernel report.
// Recursion makes the true demand unbounded; that is legal under CARS
// — the circular stack spills its bottom through a software trap —
// and is reported as Info. Two more advisory findings come out of the
// same analysis: when the demand fits even the low-watermark
// allocation the spill trap is statically unreachable, and when the
// liveness-sharpened demand undercuts the architectural one the
// windows are wider than the values actually carried across calls.
func checkStackDemand(sums []*funcSummary, graphs map[string]*callgraph.Analysis) ([]Diagnostic, []KernelReport) {
	var diags []Diagnostic
	var reports []KernelReport
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		an := graphs[name]
		budget := an.StackSlots(an.HighWatermark())
		if an.Cyclic {
			diags = append(diags, Diagnostic{Sev: SevInfo, Func: name, Index: -1, Check: CheckRecursion,
				Msg: "recursive call graph: worst-case register-stack depth is unbounded and " +
					"requires trap fallback (deep calls spill through the circular-stack trap)"})
			reports = append(reports, KernelReport{Kernel: name, StackSlots: -1,
				TightStackSlots: -1, Budget: budget, TrapReachable: true})
			continue
		}
		usable := true
		for fi := range an.Nodes {
			if !sums[fi].ok {
				usable = false // per-function errors already reported
			}
		}
		if !usable {
			continue
		}
		demand := stackDemand(sums, an.Root)
		tight := stackDemandTight(sums, an.Root)
		low := an.StackSlots(an.LowWatermark())
		if demand > budget {
			diags = append(diags, Diagnostic{Sev: SevError, Func: name, Index: -1, Check: CheckStackDepth,
				Msg: fmt.Sprintf("worst-case register-stack demand is %d slots but the high watermark budgets %d: "+
					"the declared FRUs underestimate the real stack", demand, budget)})
		} else if demand <= low {
			diags = append(diags, Diagnostic{Sev: SevInfo, Func: name, Index: -1, Check: CheckTrapPath,
				Msg: fmt.Sprintf("worst-case register-stack demand (%d slots) fits the low-watermark allocation (%d): "+
					"the circular-stack spill trap is statically unreachable", demand, low)})
		}
		if tight < demand {
			diags = append(diags, Diagnostic{Sev: SevInfo, Func: name, Index: -1, Check: CheckLiveAcross,
				Msg: fmt.Sprintf("liveness bounds the stack demand a narrower-window lowering could reach at %d of %d slots: "+
					"callers keep fewer values live across calls than their windows hold", tight, demand)})
		}
		reports = append(reports, KernelReport{Kernel: name, StackSlots: demand,
			TightStackSlots: tight, Budget: budget, TrapReachable: demand > low})
	}
	return diags, reports
}

// Weakened reports whether this build carries the planted analyzer
// weakening (`-tags vetweaken`, see weaken.go) that the fuzzer
// self-test must catch. Production binaries always return false.
func Weakened() bool { return weakenStackDemand }

// maxInt joins two stack demands.
func maxInt(a, b int) int { return max(a, b) }

// stackDemand computes the worst-case register-stack slots consumed
// below a function's frame base: its own deepest push state, or a
// call site's depth plus the saved-RFP slot plus the callee's demand.
// Only called on acyclic graphs; a call closing a cycle would add 0,
// so a fuzzer (or a future analysis bug) degrades to a finite answer,
// not a stack overflow.
func stackDemand(sums []*funcSummary, root int) int {
	rfpSlot := 1
	if weakenStackDemand {
		rfpSlot = 0
	}
	return bottomUp(sums, root, 0, func(fi int) int { return sums[fi].maxDepth }, maxInt,
		func(d int, s *callSite, callee int) int { return max(d, s.depth+rfpSlot+callee) })
}
