package vet

import (
	"fmt"
	"sort"

	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// Licensing facts (DESIGN.md §14): the machine-readable bridge between
// vet's analyses and the certificate-carrying optimizer (internal/opt).
// Every rewrite the optimizer applies must cite one of these facts by
// name; the fact is the proof obligation, the differential oracle the
// enforcement. The fact extraction is deliberately MORE conservative
// than the diagnostics: a Warning may tolerate a false positive, a
// rewrite may not.

// Fact names cited by optimizer certificates.
const (
	// FactDeadBranch: a predicated BRA whose condition is constant on
	// every execution (range.go). Licenses branch folding and the
	// removal of code the fold disconnects.
	FactDeadBranch = "dead-branch"
	// FactDeadDef: a pure, unpredicated register def whose value no
	// path can consume (backward liveness). Licenses deleting the
	// instruction.
	FactDeadDef = "dead-def"
	// FactDeadWindow: declared callee-saved window registers the body
	// never references (checkDeadWindow). Licenses narrowing the
	// declared window (and renaming to close interior holes).
	FactDeadWindow = "dead-window"
	// FactIndirect: an indirect call whose selector provably holds one
	// candidate (range.go). Licenses devirtualizing the site to a
	// direct call.
	FactIndirect = "indirect-narrow"
)

// Fact is one licensing fact in a certificate: which analysis proved
// it, where, and the human-readable detail.
type Fact struct {
	Name   string `json:"name"`
	Func   string `json:"func"`
	Index  int    `json:"index"` // instruction index; -1 = whole function
	Detail string `json:"detail"`
}

// DeadBranch is one statically-dead branch edge: the predicated BRA at
// Index either always branches (Always, fall-through dead) or never
// does (branch edge dead).
type DeadBranch struct {
	Index  int  `json:"index"`
	Always bool `json:"always"`
}

// IndirectNarrow is one provably-single-target indirect call site.
type IndirectNarrow struct {
	Index   int    `json:"index"`
	Ordinal int    `json:"ordinal"` // ordinal among the function's CALLI sites
	Target  string `json:"target"`  // candidate name the selector must hold
}

// TripBound is one derived loop trip-count bound: the loop whose
// header is at instruction HeaderIndex executes its body at most Trips
// times per entry.
type TripBound struct {
	HeaderIndex int   `json:"headerIndex"`
	Trips       int64 `json:"trips"`
}

// FuncFacts bundles every licensing fact vet can prove about one
// pre-ABI function.
type FuncFacts struct {
	Func string `json:"func"`
	// DeadBranches from the value-range analysis.
	DeadBranches []DeadBranch `json:"deadBranches,omitempty"`
	// DeadDefs lists instruction indices of pure, unpredicated register
	// defs (ALU/MOV/MOVI/S2R/SEL) whose destination is dead afterwards
	// on every path. Loads and SETP are excluded: loads can fault and
	// predicate liveness is out of scope.
	DeadDefs []int `json:"deadDefs,omitempty"`
	// WindowUnused lists declared callee-saved registers (absolute
	// register numbers) the body never reads or writes.
	WindowUnused []int `json:"windowUnused,omitempty"`
	// Indirect lists provably-single-target CALLI sites.
	Indirect []IndirectNarrow `json:"indirect,omitempty"`
	// Trips lists the derived loop bounds (reporting only; no rewrite
	// consumes them, they collapse cost polynomials instead).
	Trips []TripBound `json:"trips,omitempty"`
}

// Fact renders a named Fact for one entry of the bundle, for embedding
// in an optimizer certificate.
func (ff *FuncFacts) Fact(name string, index int, detail string) Fact {
	return Fact{Name: name, Func: ff.Func, Index: index, Detail: detail}
}

// ModuleFacts extracts the licensing-fact bundle for every function of
// a pre-ABI module. The module should be vet-clean (no Error/Warning
// from Modules); facts extracted from a dirty module are still sound
// individually but the optimizer refuses to proceed on one.
func ModuleFacts(m *kir.Module) map[string]*FuncFacts {
	out := map[string]*FuncFacts{}
	a := &arena{}
	for _, f := range m.Funcs {
		v := &funcVet{
			name:        f.Name,
			code:        f.Code,
			isKernel:    f.IsKernel,
			calleeSaved: f.CalleeSaved,
			preABI:      f,
			arena:       a,
		}
		v.run()
		ff := &FuncFacts{Func: f.Name}
		if rng := v.summary.rng; rng != nil {
			for _, db := range rng.deadBranches {
				ff.DeadBranches = append(ff.DeadBranches, DeadBranch{Index: db.index, Always: db.always})
			}
			for _, in := range rng.indirect {
				ff.Indirect = append(ff.Indirect, IndirectNarrow{Index: in.index, Ordinal: in.ordinal, Target: in.target})
			}
			headers := make([]int, 0, len(rng.trips))
			for h := range rng.trips {
				headers = append(headers, h)
			}
			sort.Ints(headers)
			for _, h := range headers {
				ff.Trips = append(ff.Trips, TripBound{
					HeaderIndex: headerIndex(&v.summary, h), Trips: rng.trips[h],
				})
			}
		}
		if v.cfg != nil {
			ff.DeadDefs = deadDefs(v)
		}
		ff.WindowUnused = windowUnused(f)
		out[f.Name] = ff
	}
	return out
}

// deadDefs runs the backward liveness fixpoint over the pre-ABI code
// and collects pure, unpredicated defs that are dead afterwards on
// every path. The exit state is deliberately wider than the report's
// ({R4}): all of R0..R15 count as caller-visible at RET, so a caller
// reading any scratch register after a call — convention-breaking but
// executable — can never observe a difference.
func deadDefs(v *funcVet) []int {
	var exit regset
	if !v.isKernel {
		exit.addRange(0, isa.FirstCalleeSaved)
	}
	outs := v.cfg.backwardMay(exit, v.liveTransfer)

	var dead []int
	for bi := range v.cfg.blocks {
		if !v.cfg.reach[bi] {
			continue
		}
		b := &v.cfg.blocks[bi]
		st := outs[bi]
		for i := b.end - 1; i >= b.start; i-- {
			in := &v.code[i]
			if pureDef(in) && in.Pred == isa.NoPred && !st.has(in.Dst) {
				dead = append(dead, i)
			}
			v.liveTransfer(i, &st)
		}
	}
	sort.Ints(dead)
	return dead
}

// pureDef reports whether in is a side-effect-free register definition:
// removable when its destination is dead. Loads are excluded (an
// out-of-range address faults in the simulator, and removing the fault
// would change observable behaviour); SETP writes a predicate, not a
// register; calls, stores, and barriers have effects.
func pureDef(in *isa.Instruction) bool {
	if !in.WritesReg() {
		return false
	}
	switch in.Op {
	case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpIMin, isa.OpIMax,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpMov, isa.OpMovI, isa.OpSel, isa.OpS2R,
		isa.OpFAdd, isa.OpFMul, isa.OpFFma, isa.OpFRcp, isa.OpFSqr:
		return true
	}
	return false
}

// windowUnused lists declared callee-saved registers the body never
// references, mirroring checkDeadWindow's scan.
func windowUnused(f *kir.Func) []int {
	if f.IsKernel || f.CalleeSaved == 0 {
		return nil
	}
	var referenced [isa.MaxArchRegs]bool
	var buf [3]uint8
	for i := range f.Code {
		in := &f.Code[i]
		if in.WritesReg() {
			referenced[in.Dst] = true
		}
		for _, r := range in.Reads(buf[:0]) {
			referenced[r] = true
		}
	}
	var unused []int
	for k := 0; k < f.CalleeSaved && isa.FirstCalleeSaved+k < isa.MaxArchRegs; k++ {
		if r := isa.FirstCalleeSaved + k; !referenced[r] {
			unused = append(unused, r)
		}
	}
	return unused
}

// String renders the fact compactly for certificates and logs.
func (f Fact) String() string {
	if f.Index < 0 {
		return fmt.Sprintf("%s(%s: %s)", f.Name, f.Func, f.Detail)
	}
	return fmt.Sprintf("%s(%s[%d]: %s)", f.Name, f.Func, f.Index, f.Detail)
}
