// Package abi implements the GPU function-calling ABI the paper studies
// and the link step that produces executable programs.
//
// The calling convention mirrors contemporary NVIDIA GPUs (§II):
//
//   - R0..R3   scratch, clobbered freely
//   - R4..R15  argument / return / temporary registers (caller-saved)
//   - R16..    callee-saved registers, allocated contiguously from R16
//   - R1       per-thread local-memory stack pointer (grows down)
//
// In Baseline mode, each function's prologue spills the callee-saved
// registers it uses to its local-memory frame with STL and its epilogue
// fills them back with LDL — the traffic the paper shows consumes 40.4%
// of L1D accesses. In CARS mode, those spills/fills are replaced with
// PUSHRFP/PUSH/POP register-stack micro-ops that move no data (§III-A);
// the hardware renames callee-saved registers into the warp's register
// stack instead.
package abi

import (
	"errors"
	"fmt"
	"sort"

	"carsgo/internal/callgraph"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/vet"
)

// Register convention constants.
const (
	RegSP       = 1 // local-memory stack pointer
	RegArg0     = 4 // first argument register
	RegRet      = 4 // return-value register
	NumArgRegs  = 12
	RegScratch0 = 0
)

// LocalStackBytes is the per-thread software stack for local frames.
// The stack grows down from this address; addresses at and above it are
// reserved for CARS trap spill slots (see TrapSpillBase).
const LocalStackBytes = 24 * 1024

// TrapSpillBase is the first per-thread local address of the CARS trap
// spill area. Register-stack slot p spills to TrapSpillBase + 4*p.
const TrapSpillBase = LocalStackBytes

// Mode selects how spills/fills are lowered.
type Mode int

const (
	// Baseline lowers callee-saved preservation to STL/STL local-memory
	// spills and LDL fills, as nvcc does.
	Baseline Mode = iota
	// CARS lowers callee-saved preservation to register-stack push/pop
	// micro-ops; local memory is touched only via software traps.
	CARS
	// SharedSpill lowers callee-saved preservation to shared-memory
	// stores/loads (a CRAT-like scheme, §VII): spill traffic bypasses
	// the L1D entirely but each warp's spill frame consumes shared
	// memory, which costs occupancy. R0 serves as the per-warp
	// shared-memory spill stack pointer, initialised by the hardware at
	// warp start; recursion is rejected at link time (the frame bound
	// must be static).
	SharedSpill
)

func (m Mode) String() string {
	switch m {
	case CARS:
		return "cars"
	case SharedSpill:
		return "smem-spill"
	}
	return "baseline"
}

// Modes lists every ABI mode, in declaration order, for tools that
// link the same modules under each mode (carsvet, the differential
// harness, transparency tests).
var Modes = []Mode{Baseline, CARS, SharedSpill}

// ErrRecursive is wrapped by Link when the shared-memory spill ABI
// rejects a recursive kernel; callers use errors.Is to skip the
// combination instead of string-matching the message.
var ErrRecursive = errors.New("recursive call graph")

// RegSmemSP is the shared-memory spill stack pointer register used by
// the SharedSpill mode. Generated code must not clobber it.
const RegSmemSP = 0

// Link lowers and links a set of modules into an executable program.
// It resolves symbolic call targets across modules (separate compilation),
// embeds each callee's FRU into call/return instructions (§IV-A), and
// computes the baseline worst-case register allocation per warp.
func Link(mode Mode, modules ...*kir.Module) (*isa.Program, error) {
	var funcs []*kir.Func
	for _, m := range modules {
		funcs = append(funcs, m.Funcs...)
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("abi: no functions to link")
	}
	index := make(map[string]int, len(funcs))
	for i, f := range funcs {
		if _, dup := index[f.Name]; dup {
			return nil, fmt.Errorf("abi: duplicate symbol %q", f.Name)
		}
		index[f.Name] = i
	}

	prog := &isa.Program{Kernels: map[string]int{}, CARS: mode == CARS}
	bodyMaps := make([][]int, len(funcs))
	for i, f := range funcs {
		lowered, bodyMap, err := lower(mode, f)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, lowered)
		bodyMaps[i] = bodyMap
		if f.IsKernel {
			prog.Kernels[f.Name] = i
		}
	}

	// Resolve call targets, indirect candidate sets, and function refs.
	for i, f := range funcs {
		lf := prog.Funcs[i]
		indirect := 0
		for ci := range lf.Code {
			in := &lf.Code[ci]
			switch in.Op {
			case isa.OpCall:
				name := f.CallNames[in.Callee]
				ti, ok := index[name]
				if !ok {
					return nil, fmt.Errorf("abi: %s calls undefined %q", f.Name, name)
				}
				if funcs[ti].IsKernel {
					return nil, fmt.Errorf("abi: %s calls kernel %q", f.Name, name)
				}
				in.Callee = ti
				lf.Callees = append(lf.Callees, ti)
			case isa.OpCallI:
				cands := f.IndirectTargets[indirect]
				indirect++
				var resolved []int
				for _, name := range cands {
					ti, ok := index[name]
					if !ok {
						return nil, fmt.Errorf("abi: %s indirect candidate %q undefined", f.Name, name)
					}
					resolved = append(resolved, ti)
				}
				sort.Ints(resolved)
				lf.IndirectTargets = append(lf.IndirectTargets, resolved)
			}
		}
	}

	// Embed FRUs now that targets are known. For indirect calls the
	// linker uses the highest register usage among the candidate set
	// (§III-C). Fix up MovFuncIdx immediates.
	for i, f := range funcs {
		lf := prog.Funcs[i]
		indirect := 0
		for ci := range lf.Code {
			in := &lf.Code[ci]
			switch in.Op {
			case isa.OpCall:
				in.FRU = prog.Funcs[in.Callee].FRU()
			case isa.OpCallI:
				maxFRU := 0
				for _, ti := range lf.IndirectTargets[indirect] {
					if fr := prog.Funcs[ti].FRU(); fr > maxFRU {
						maxFRU = fr
					}
				}
				indirect++
				in.FRU = maxFRU
			case isa.OpRet:
				in.FRU = lf.FRU()
			}
		}
		for preIdx, name := range f.FuncRefs {
			ti, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("abi: %s references undefined %q", f.Name, name)
			}
			lf.Code[bodyMaps[i][preIdx]].Imm = int32(ti)
		}
	}

	// Baseline register allocation: the linker determines the worst-case
	// register usage at any point in the call graph — the function using
	// the most registers — and allocates each warp that many (§II).
	maxRegs := 0
	for _, lf := range prog.Funcs {
		if lf.RegsUsed > maxRegs {
			maxRegs = lf.RegsUsed
		}
	}
	prog.StaticRegsPerWarp = maxRegs

	if mode == SharedSpill {
		if err := sizeSmemSpill(prog); err != nil {
			return nil, err
		}
	}

	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// LinkStrict links like Link and then runs the static verifier over
// the result (internal/vet), rejecting the program if any
// error-severity diagnostic is found: uninitialized reads, clobbered
// callee-saved registers, unbalanced push/pop paths, broken
// spill/fill pairing, or call-graph stack demand beyond the declared
// FRUs. Warnings and the recursion Info diagnostic do not reject.
func LinkStrict(mode Mode, modules ...*kir.Module) (*isa.Program, error) {
	prog, err := Link(mode, modules...)
	if err != nil {
		return nil, err
	}
	if err := Verified(vet.Program(prog)); err != nil {
		return nil, err
	}
	return prog, nil
}

// Verified is LinkStrict's gate over a linked program's vet
// diagnostics: an error listing every error-severity one.
func Verified(diags []vet.Diagnostic) error {
	if err := vet.ErrorOrNil(diags); err != nil {
		return fmt.Errorf("abi: program failed verification: %w", err)
	}
	return nil
}

// sizeSmemSpill computes the worst-case per-warp shared-memory spill
// frame over every kernel's call graph. Recursion has no static bound
// and is rejected, as CRAT-like schemes must.
func sizeSmemSpill(p *isa.Program) error {
	worst := 0
	for name := range p.Kernels {
		a, err := callgraph.Analyze(p, name)
		if err != nil {
			return err
		}
		if a.Cyclic {
			return fmt.Errorf("abi: kernel %q has a %w; the shared-memory spill ABI needs a static frame bound", name, ErrRecursive)
		}
		// Deepest chain of callee-saved bytes (the saved-RFP slot is a
		// CARS concept; shared spills store only the registers).
		depth := map[int]int{}
		var walk func(fi int) int
		walk = func(fi int) int {
			if d, ok := depth[fi]; ok {
				return d
			}
			n := a.Nodes[fi]
			maxChild := 0
			for _, ti := range n.Callees {
				if d := walk(ti); d > maxChild {
					maxChild = d
				}
			}
			d := 4*n.Func.CalleeSaved + maxChild
			depth[fi] = d
			return d
		}
		if d := walk(a.Root); d > worst {
			worst = d
		}
	}
	p.SmemSpillPerThread = worst
	return nil
}

// frameBytes is the local-memory frame a function needs under the mode
// (SharedSpill and CARS keep only the explicit extras in local memory).
func frameBytes(mode Mode, f *kir.Func) int {
	fb := f.ExtraLocalBytes
	if mode == Baseline {
		fb += 4 * f.CalleeSaved
	}
	return fb
}

// lower produces the executable form of one pre-ABI function.
//
// Frame layout (R1-relative, stack grows down): extras occupy offsets
// [0, ExtraLocalBytes); baseline spill slots follow at ExtraLocalBytes.
// Body code addresses extras via R1 directly, so both modes see extras
// at the same offsets.
//
// The returned bodyMap maps each pre-ABI instruction index (plus one
// past-the-end entry) to its lowered index, for relocating references.
func lower(mode Mode, f *kir.Func) (*isa.Function, []int, error) {
	out := &isa.Function{
		Name:            f.Name,
		IsKernel:        f.IsKernel,
		RegsUsed:        f.RegsUsed,
		CalleeSaved:     f.CalleeSaved,
		LocalFrameBytes: frameBytes(mode, f),
	}
	if out.RegsUsed < RegArg0 {
		out.RegsUsed = RegArg0 // R0-R3 always exist
	}
	frame := frameBytes(mode, f)

	var code []isa.Instruction
	if f.IsKernel {
		// Kernel init: establish the local stack pointer.
		code = append(code, isa.Instruction{
			Op: isa.OpMovI, Dst: RegSP, SrcA: isa.NoReg, SrcB: isa.NoReg,
			SrcC: isa.NoReg, Pred: isa.NoPred, Imm: LocalStackBytes,
		})
		if f.ExtraLocalBytes > 0 {
			code = append(code, addSP(-int32(f.ExtraLocalBytes)))
		}
		if f.CalleeSaved != 0 {
			return nil, nil, fmt.Errorf("abi: kernel %s declares callee-saved registers", f.Name)
		}
	} else {
		if frame > 0 {
			code = append(code, addSP(-int32(frame)))
		}
		switch mode {
		case Baseline:
			// Prologue: spill callee-saved registers to the frame.
			for k := 0; k < f.CalleeSaved; k++ {
				code = append(code, isa.Instruction{
					Op: isa.OpStL, Dst: isa.NoReg, SrcA: RegSP, SrcB: isa.NoReg,
					SrcC: uint8(isa.FirstCalleeSaved + k), Pred: isa.NoPred,
					Imm: int32(f.ExtraLocalBytes + 4*k), Spill: true,
				})
			}
		case SharedSpill:
			if f.CalleeSaved > 0 {
				code = append(code, addSmemSP(-4*int32(f.CalleeSaved)))
				for k := 0; k < f.CalleeSaved; k++ {
					code = append(code, isa.Instruction{
						Op: isa.OpStS, Dst: isa.NoReg, SrcA: RegSmemSP, SrcB: isa.NoReg,
						SrcC: uint8(isa.FirstCalleeSaved + k), Pred: isa.NoPred,
						Imm: int32(4 * k), Spill: true,
					})
				}
			}
		case CARS:
			if f.CalleeSaved > 0 {
				// Allocate + rename the callee-saved set (§IV-A: "after
				// each relocatable call instruction, the registers to be
				// renamed and allocated are listed in pushes").
				code = append(code, isa.Instruction{
					Op: isa.OpPush, Dst: isa.NoReg, SrcA: isa.NoReg,
					SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred,
					Imm: int32(f.CalleeSaved),
				})
			}
		}
	}
	prologueLen := len(code)

	// Body, with branch targets shifted and caller-side call wrapping.
	// In CARS mode every call site is preceded by a PUSHRFP micro-op
	// that saves the caller's register frame pointer (§IV-A), so the
	// per-site expansion differs between modes and targets must be
	// remapped rather than uniformly shifted.
	bodyMap := make([]int, len(f.Code)+1)
	for preIdx := range f.Code {
		bodyMap[preIdx] = len(code)
		in := f.Code[preIdx]
		if mode == CARS && (in.Op == isa.OpCall || in.Op == isa.OpCallI) {
			code = append(code, isa.Instruction{
				Op: isa.OpPushRFP, Dst: isa.NoReg, SrcA: isa.NoReg,
				SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred,
			})
		}
		if in.Op == isa.OpRet {
			// Epilogue before the return.
			switch mode {
			case Baseline:
				for k := 0; k < f.CalleeSaved; k++ {
					code = append(code, isa.Instruction{
						Op: isa.OpLdL, Dst: uint8(isa.FirstCalleeSaved + k),
						SrcA: RegSP, SrcB: isa.NoReg, SrcC: isa.NoReg,
						Pred: isa.NoPred, Imm: int32(f.ExtraLocalBytes + 4*k),
						Spill: true,
					})
				}
			case SharedSpill:
				for k := 0; k < f.CalleeSaved; k++ {
					code = append(code, isa.Instruction{
						Op: isa.OpLdS, Dst: uint8(isa.FirstCalleeSaved + k),
						SrcA: RegSmemSP, SrcB: isa.NoReg, SrcC: isa.NoReg,
						Pred: isa.NoPred, Imm: int32(4 * k), Spill: true,
					})
				}
				code = append(code, addSmemSP(4*int32(f.CalleeSaved)))
			case CARS:
				if f.CalleeSaved > 0 {
					code = append(code, isa.Instruction{
						Op: isa.OpPop, Dst: isa.NoReg, SrcA: isa.NoReg,
						SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred,
						Imm: int32(f.CalleeSaved),
					})
				}
			}
			if frame > 0 {
				code = append(code, addSP(int32(frame)))
			}
		}
		code = append(code, in)
	}
	bodyMap[len(f.Code)] = len(code)

	// Remap branch targets from pre-ABI indices to lowered indices.
	for ci := prologueLen; ci < len(code); ci++ {
		in := &code[ci]
		if in.Op == isa.OpBra {
			in.Target = bodyMap[in.Target]
			in.Target2 = bodyMap[in.Target2]
		}
	}
	out.Code = code
	return out, bodyMap, nil
}

func addSmemSP(delta int32) isa.Instruction {
	return isa.Instruction{
		Op: isa.OpIAdd, Dst: RegSmemSP, SrcA: RegSmemSP, SrcB: isa.NoReg,
		SrcC: isa.NoReg, Pred: isa.NoPred, Imm: delta,
	}
}

func addSP(delta int32) isa.Instruction {
	return isa.Instruction{
		Op: isa.OpIAdd, Dst: RegSP, SrcA: RegSP, SrcB: isa.NoReg,
		SrcC: isa.NoReg, Pred: isa.NoPred, Imm: delta,
	}
}
