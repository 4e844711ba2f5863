// Package vet statically verifies programs against the repo's calling
// convention: the correctness backbone for the CARS ABI.
//
// The verifier runs over both linked isa.Programs and pre-link
// kir.Modules. For each function it constructs a control-flow graph
// from the branch/return/exit instructions and runs forward dataflow
// analyses over it:
//
//   - must-defined registers: flags reads of registers that may be
//     uninitialized on some path (read-before-def)
//   - must-preserved registers: flags writes to callee-saved registers
//     (R16..) that were not first spilled or pushed
//   - must-filled registers: flags return paths that do not restore a
//     spilled callee-saved register
//   - register-stack depth: checks push/pop balance on every path to
//     RET, PUSHRFP-before-call pairing, and that the push depth never
//     exceeds the declared callee-saved count (the FRU)
//
// Program-level checks compare the call-graph-wide worst-case register-
// stack demand against the allocator watermarks (internal/callgraph);
// unbounded recursion is reported at Info severity — it is legal under
// CARS, falling back to the circular-stack spill trap (§III-C).
//
// Results are structured Diagnostics so tools can filter by severity
// or check; abi.LinkStrict, cmd/carsasm, and cmd/carsvet all consume
// them.
package vet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"carsgo/internal/callgraph"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// Severity ranks a diagnostic. A program "vets clean" when it has no
// Error or Warning diagnostics; Info diagnostics (e.g. recursion) are
// advisory and never fail a strict link.
type Severity int

// Severity levels, ordered from least to most severe.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name, so machine output
// stays readable and stable if the numeric order ever changes.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the name form back, so emitted reports (any
// schema version) round-trip through consumers of the JSON envelope.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("vet: unknown severity %q", name)
	}
	return nil
}

// Check identifies the analysis that produced a diagnostic, so tools
// can filter by class.
type Check string

// The diagnostic taxonomy (see DESIGN.md §6).
const (
	CheckValidate     Check = "validate"           // isa.Program.Validate failed
	CheckStructure    Check = "structure"          // malformed function shape
	CheckUnreachable  Check = "unreachable"        // code no path reaches
	CheckUninitRead   Check = "uninit-read"        // read-before-def
	CheckDeadSpill    Check = "dead-spill"         // spill store never filled back
	CheckSpillPair    Check = "spill-pairing"      // fill/store mismatch or bad slot
	CheckCalleeSaved  Check = "callee-saved"       // clobbered or unrestored R16+
	CheckStackBalance Check = "stack-balance"      // push/pop imbalance on a path
	CheckPushRFP      Check = "pushrfp"            // call without PUSHRFP pairing
	CheckModeMismatch Check = "mode-mismatch"      // op illegal under the ABI mode
	CheckStackDepth   Check = "stack-depth"        // demand exceeds declared FRUs
	CheckRecursion    Check = "recursion"          // unbounded stack (trap fallback)
	CheckCallSite     Check = "call-site"          // call metadata inconsistent
	CheckDeadSave     Check = "dead-save"          // save/restore of a never-touched reg
	CheckOverPush     Check = "over-wide-push"     // PUSH window wider than referenced
	CheckTrapPath     Check = "trap-unreachable"   // spill trap statically dead
	CheckLiveAcross   Check = "live-across"        // liveness-sharpened demand info
	CheckBarrier      Check = "barrier-divergence" // BAR.SYNC some threads may skip
	CheckReconv       Check = "reconvergence"      // SSY/SYNC stack malformed
	CheckSharedRace   Check = "shared-race"        // unordered shared-memory conflict
	CheckDeadBranch   Check = "dead-branch"        // branch condition statically constant
	CheckOOB          Check = "oob-access"         // provably out-of-bounds local/shared access
	CheckIndirect     Check = "indirect-narrow"    // indirect call provably single-target
)

// Diagnostic is one finding. Index is the instruction index within
// Func, or -1 for whole-function / whole-program findings.
type Diagnostic struct {
	Sev   Severity `json:"sev"`
	Func  string   `json:"func"`
	Index int      `json:"index"`
	Check Check    `json:"check"`
	Msg   string   `json:"msg"`
}

func (d Diagnostic) String() string {
	loc := d.Func
	if loc == "" {
		loc = "<program>"
	}
	if d.Index >= 0 {
		loc = fmt.Sprintf("%s[%d]", loc, d.Index)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", d.Sev, loc, d.Msg, d.Check)
}

// HasErrors reports whether any diagnostic is an Error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Sev == SevError {
			return true
		}
	}
	return false
}

// Clean reports whether the diagnostics contain no Errors or Warnings.
func Clean(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Sev >= SevWarning {
			return false
		}
	}
	return true
}

// ErrorOrNil folds the Error-severity diagnostics into a single error,
// or nil when there are none.
func ErrorOrNil(diags []Diagnostic) error {
	var msgs []string
	for _, d := range diags {
		if d.Sev == SevError {
			msgs = append(msgs, d.String())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("vet: %d error(s):\n  %s", len(msgs), strings.Join(msgs, "\n  "))
}

// progMode is the ABI mode a linked program was compiled under,
// derived from program metadata so vet does not import internal/abi
// (abi imports vet for LinkStrict).
type progMode int

const (
	modeBaseline progMode = iota
	modeCARS
	modeSmem
)

func (m progMode) String() string {
	switch m {
	case modeCARS:
		return "cars"
	case modeSmem:
		return "smem-spill"
	}
	return "baseline"
}

func modeOf(p *isa.Program) progMode {
	switch {
	case p.CARS:
		return modeCARS
	case p.SmemSpillPerThread > 0:
		return modeSmem
	}
	return modeBaseline
}

// SiteReport describes one call site in a function: the register-
// stack depth pushed when control reaches it (CARS; 0 otherwise) and
// how many callee-saved values are live across the call.
type SiteReport struct {
	Index      int `json:"index"`
	Depth      int `json:"depth"`
	LiveAcross int `json:"liveAcross"`
}

// FuncReport is the machine-readable per-function summary.
// MaxStackDepth is the largest net PUSH depth on any path (CARS);
// SpillBytes bounds per-activation spill-store traffic in bytes
// (baseline/shared-spill), or -1 when a spill store sits on a loop
// and the bound is unbounded.
type FuncReport struct {
	Func          string `json:"func"`
	Kernel        bool   `json:"kernel"`
	CalleeSaved   int    `json:"calleeSaved"`
	MaxStackDepth int    `json:"maxStackDepth"`
	SpillBytes    int    `json:"spillBytes"`
	MaxLive       int    `json:"maxLive"`
	// DivergentBranches counts predicated branches the uniformity
	// analysis could not prove block-uniform; Barriers counts BAR.SYNC
	// instructions in the function body.
	DivergentBranches int          `json:"divergentBranches"`
	Barriers          int          `json:"barriers"`
	LiveRanges        []LiveRange  `json:"liveRanges,omitempty"`
	CallSites         []SiteReport `json:"callSites,omitempty"`
	// Cost carries the per-activation static cost bounds (cost.go):
	// intraprocedural, per single activation of this function.
	Cost *CostReport `json:"cost,omitempty"`
}

// KernelReport is the per-kernel call-graph summary under CARS.
// StackSlots is the architectural worst-case register-stack demand
// (-1 when recursion makes it unbounded); TightStackSlots is the
// liveness-sharpened advisory demand; Budget is the high-watermark
// slot budget; TrapReachable reports whether the circular-stack spill
// trap can fire at all under the smallest (low-watermark) allocation.
type KernelReport struct {
	Kernel          string `json:"kernel"`
	StackSlots      int    `json:"stackSlots"`
	TightStackSlots int    `json:"tightStackSlots"`
	Budget          int    `json:"budget"`
	TrapReachable   bool   `json:"trapReachable"`
	// Synchronization verdicts (see DESIGN.md §8). BarrierSafe: every
	// BAR.SYNC reachable from this kernel provably executes with all
	// threads of the block arriving together. RaceFree: no two shared-
	// memory accesses in the same barrier interval may touch the same
	// word from distinct threads with a write involved. SharedAccesses
	// counts user (non-spill) LDS/STS sites in the kernel body; every
	// may-racing pair is listed in RacePairs.
	BarrierSafe    bool       `json:"barrierSafe"`
	RaceFree       bool       `json:"raceFree"`
	SharedAccesses int        `json:"sharedAccesses"`
	RacePairs      []RacePair `json:"racePairs,omitempty"`
	// Perf is the static performance analysis family (DESIGN.md §9):
	// interprocedural cost bounds always; the occupancy model and the
	// watermark advice when AnalyzePerf ran with a launch shape.
	Perf *KernelPerf `json:"perf,omitempty"`

	// resid evaluates the kernel's residual shared-memory traffic
	// bounds at a given RF-cache window (backend.go). Stashed by
	// Report so AnalyzePerf can refine the backend lattice rows
	// without rerunning the interprocedural passes; nil on hand-built
	// reports. Deliberately a data struct, not a closure: reports
	// built from identical programs stay reflect.DeepEqual.
	resid *residEval
	// graph is the kernel's call-graph analysis, stashed by Report so
	// AnalyzePerf need not rerun it; nil on hand-built reports.
	graph *callgraph.Analysis
}

// RacePair is one may-race between two shared-memory access sites
// (instruction indices in the kernel), with Kind "w/w" or "r/w".
type RacePair struct {
	First  int    `json:"first"`
	Second int    `json:"second"`
	Kind   string `json:"kind"`
}

// ProgramReport bundles everything vet knows about a linked program:
// the normalized diagnostics plus the per-function and per-kernel
// machine-readable summaries consumed by carsvet -json and the
// static/dynamic differential harness (internal/san).
type ProgramReport struct {
	Mode    string         `json:"mode"`
	Funcs   []FuncReport   `json:"funcs"`
	Kernels []KernelReport `json:"kernels,omitempty"`
	Diags   []Diagnostic   `json:"diags,omitempty"`
	// Cross carries the merged cross-backend advice when
	// CrossBackendAdvice combined this report with the same modules'
	// reports under the other ABI modes.
	Cross []CrossAdvice `json:"cross,omitempty"`
}

// Func returns the report for the named function, or nil.
func (r *ProgramReport) Func(name string) *FuncReport {
	for i := range r.Funcs {
		if r.Funcs[i].Func == name {
			return &r.Funcs[i]
		}
	}
	return nil
}

// Kernel returns the report for the named kernel, or nil.
func (r *ProgramReport) Kernel(name string) *KernelReport {
	for i := range r.Kernels {
		if r.Kernels[i].Kernel == name {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Normalize sorts diagnostics deterministically (function, index,
// check, severity high-first, message) and collapses duplicates of the
// same (func, index, check) triple, keeping the most severe instance —
// per-path analyses can rediscover one defect once per return path or
// per register, which would otherwise drown the report.
func Normalize(diags []Diagnostic) []Diagnostic {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		return a.Msg < b.Msg
	})
	out := diags[:0]
	for _, d := range diags {
		if n := len(out); n > 0 {
			prev := out[n-1]
			if prev.Func == d.Func && prev.Index == d.Index && prev.Check == d.Check {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Program verifies a linked program. It validates structural
// invariants first (a program failing isa.Program.Validate gets a
// single validate error, since later analyses assume in-range
// operands), then runs the per-function CFG/dataflow checks and the
// program-wide call-graph stack-depth check.
func Program(p *isa.Program) []Diagnostic {
	return Report(p).Diags
}

// Report runs the same analyses as Program and returns the full
// machine-readable report alongside the diagnostics.
func Report(p *isa.Program) *ProgramReport {
	rep := &ProgramReport{}
	if p == nil || len(p.Funcs) == 0 {
		rep.Diags = []Diagnostic{{Sev: SevError, Index: -1, Check: CheckStructure,
			Msg: "program has no functions"}}
		return rep
	}
	if err := p.Validate(); err != nil {
		rep.Diags = []Diagnostic{{Sev: SevError, Index: -1, Check: CheckValidate, Msg: err.Error()}}
		return rep
	}
	mode := modeOf(p)
	rep.Mode = mode.String()
	var diags []Diagnostic
	vets := make([]*funcVet, len(p.Funcs))
	sums := make([]*funcSummary, len(p.Funcs))
	a := &arena{}
	for fi, f := range p.Funcs {
		v := &funcVet{
			name:        f.Name,
			code:        f.Code,
			isKernel:    f.IsKernel,
			calleeSaved: f.CalleeSaved,
			frameBytes:  f.LocalFrameBytes,
			smemFrame:   4 * f.CalleeSaved,
			mode:        mode,
			linked:      true,
			indirect:    f.IndirectTargets,
			arena:       a,
		}
		v.run()
		diags = append(diags, v.diags...)
		vets[fi], sums[fi] = v, &v.summary
		var sites []SiteReport
		for _, s := range v.summary.sites {
			sites = append(sites, SiteReport{Index: s.index, Depth: s.depth, LiveAcross: s.live})
			// Call targets must be device functions: a kernel ends in
			// EXIT, so a call into one never returns to its caller.
			for _, ti := range s.callees {
				if !p.Funcs[ti].IsKernel {
					continue
				}
				msg := "calls kernel %s: kernels end with EXIT and never return"
				if s.ordinal >= 0 {
					msg = "indirect-call candidate %s is a kernel: kernels end with EXIT and never return"
				}
				diags = append(diags, Diagnostic{Sev: SevError, Func: f.Name, Index: -1,
					Check: CheckCallSite, Msg: fmt.Sprintf(msg, p.Funcs[ti].Name)})
			}
		}
		rep.Funcs = append(rep.Funcs, FuncReport{
			Func:          f.Name,
			Kernel:        f.IsKernel,
			CalleeSaved:   f.CalleeSaved,
			MaxStackDepth: v.summary.maxDepth,
			SpillBytes:    v.summary.spillBytes,
			MaxLive:       v.summary.maxLive,
			LiveRanges:    v.summary.ranges,
			CallSites:     sites,
			Cost:          v.summary.cost.report(),
		})
	}
	graphs, graphDiags := kernelGraphs(p)
	diags = append(diags, graphDiags...)
	if mode == modeCARS {
		d, kernels := checkStackDemand(sums, graphs)
		diags = append(diags, d...)
		rep.Kernels = kernels
	}

	// Synchronization analyses: uniformity/divergence, barrier legality,
	// SSY/SYNC well-formedness, shared-memory races (sync.go, race.go).
	sp := newSyncProgram(vets, mode, p.SmemSpillPerThread, true, a)
	sp.run()
	verdicts := sp.analyzeRaces(sums)
	diags = append(diags, sp.diags...)
	for fi := range rep.Funcs {
		rep.Funcs[fi].DivergentBranches = sp.funcs[fi].divCount
		rep.Funcs[fi].Barriers = sp.funcs[fi].barriers
	}
	// Kernel entries exist already under CARS (stack demand); other
	// modes get name-sorted entries carrying only the sync verdicts.
	if mode != modeCARS {
		var names []string
		for name := range verdicts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rep.Kernels = append(rep.Kernels, KernelReport{Kernel: name})
		}
	}
	for i := range rep.Kernels {
		if ks := verdicts[rep.Kernels[i].Kernel]; ks != nil {
			rep.Kernels[i].BarrierSafe = ks.barrierSafe
			rep.Kernels[i].RaceFree = ks.raceFree
			rep.Kernels[i].SharedAccesses = ks.sharedAccesses
			rep.Kernels[i].RacePairs = ks.racePairs
		}
	}
	// Bank-transaction costs (backend.go): every LDS/STS site charged
	// at the bank-conflict multiplier the sync pass's address lattice
	// yields. Runs after the sync pass, before the interprocedural
	// passes consume the accumulators.
	fillTxnCosts(p, sums, sp)
	for fi := range rep.Funcs {
		if rep.Funcs[fi].Cost != nil {
			rep.Funcs[fi].Cost.SharedTxns = sums[fi].cost.sharedTxns.bound()
		}
	}
	// Static cost bounds (cost.go): interprocedural, per kernel.
	for i := range rep.Kernels {
		if root, ok := p.Kernels[rep.Kernels[i].Kernel]; ok {
			rep.Kernels[i].Perf = &KernelPerf{Cost: *kernelCost(sums, root)}
		}
	}
	// Residual traffic closures for the backend lattice (backend.go);
	// also fills the kernel-level SharedTxns bound.
	attachResiduals(rep, sums, graphs)
	// Value-range facts (range.go): per-kernel trip-count and
	// dead-branch aggregates for the perf report.
	attachRanges(rep, p, sums)
	rep.Diags = Normalize(diags)
	return rep
}

// Modules verifies pre-ABI modules before lowering: read-before-def,
// writes outside the declared callee-saved window, unreachable code,
// malformed call metadata, and shape errors the abi pass would
// otherwise turn into lowering failures or runtime panics.
func Modules(mods ...*kir.Module) []Diagnostic {
	var diags []Diagnostic
	var vets []*funcVet
	var sums []*funcSummary
	a := &arena{}
	for _, m := range mods {
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
			diags = append(diags, v.diags...)
			vets, sums = append(vets, v), append(sums, &v.summary)
		}
	}
	resolveModuleCalls(vets)
	sp := newSyncProgram(vets, modeBaseline, 0, false, a)
	sp.run()
	sp.analyzeRaces(sums)
	diags = append(diags, sp.diags...)
	return Normalize(diags)
}
