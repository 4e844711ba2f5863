package abi

import (
	"fmt"

	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// InlineAll performs whole-program inlining at the pre-ABI level,
// modelling the "fully inlined (LTO)" configuration of Fig. 16.
//
// Every direct, non-recursive call site is replaced by the callee body.
// The callee's callee-saved registers (R16..) are remapped to fresh
// registers above the caller's live range, which removes the ABI
// spills/fills entirely — and also grows the flattened kernel's static
// register demand and code footprint, reproducing inlining's occupancy
// and instruction-cache downsides. Recursive and indirect call sites are
// left as real calls, as LTO must.
//
// Sites whose remapping would exceed the register budget are also left
// as calls — the -maxrregcount-style fallback real toolchains use; the
// default budget is the ISA's 256-register limit.
func InlineAll(modules ...*kir.Module) (*kir.Module, error) {
	return InlineAllBudget(isa.MaxArchRegs, modules...)
}

// InlineAllBudget inlines like InlineAll but stops growing any one
// function past maxRegs architectural registers, keeping further call
// sites as real calls. Practical LTO uses budgets well below the ISA
// limit so inlined kernels can still reach full occupancy.
func InlineAllBudget(maxRegs int, modules ...*kir.Module) (*kir.Module, error) {
	var funcs []*kir.Func
	for _, m := range modules {
		funcs = append(funcs, m.Funcs...)
	}
	index := make(map[string]*kir.Func, len(funcs))
	for _, f := range funcs {
		if _, dup := index[f.Name]; dup {
			return nil, fmt.Errorf("abi: duplicate symbol %q", f.Name)
		}
		index[f.Name] = f
	}

	if maxRegs <= 0 || maxRegs > isa.MaxArchRegs {
		maxRegs = isa.MaxArchRegs
	}
	out := &kir.Module{Name: "lto"}
	kept := map[string]bool{} // device funcs still referenced post-inline

	for _, f := range funcs {
		if !f.IsKernel {
			continue
		}
		flat, err := flatten(index, kept, f, map[string]bool{f.Name: true}, maxRegs)
		if err != nil {
			return nil, err
		}
		out.AddFunc(flat)
	}
	// Emit still-referenced (non-inlined) device functions in
	// declaration order, flattening their bodies too; flattening may
	// reference further functions, so repeat until no new function is
	// kept. The order fixes the LTO program's layout, so it must not
	// depend on map iteration.
	emitted := map[string]bool{}
	for progress := true; progress; {
		progress = false
		for _, f := range funcs {
			if !kept[f.Name] || emitted[f.Name] {
				continue
			}
			emitted[f.Name] = true
			progress = true
			flat, err := flatten(index, kept, f, map[string]bool{f.Name: true}, maxRegs)
			if err != nil {
				return nil, err
			}
			out.AddFunc(flat)
		}
	}
	return out, nil
}

// maxCalleeReg is how many callee-saved register names f consumes.
func maxCalleeReg(f *kir.Func) int {
	n := f.RegsUsed - isa.FirstCalleeSaved
	if n < 0 {
		return 0
	}
	return n
}

// flatten inlines all eligible call sites of f, maintaining an
// instruction position map so caller branch targets survive expansion.
// chain holds the names on the current inline path (cycle breaker).
func flatten(index map[string]*kir.Func, kept map[string]bool, f *kir.Func, chain map[string]bool, maxRegs int) (*kir.Func, error) {
	res := &kir.Func{
		Name:            f.Name,
		IsKernel:        f.IsKernel,
		CalleeSaved:     f.CalleeSaved,
		ExtraLocalBytes: f.ExtraLocalBytes,
		RegsUsed:        f.RegsUsed,
		FuncRefs:        map[int]string{},
	}
	allocTop := f.RegsUsed
	if allocTop < isa.FirstCalleeSaved {
		allocTop = isa.FirstCalleeSaved
	}
	extraTop := f.ExtraLocalBytes

	posMap := make([]int, len(f.Code)+1)
	type braFix struct{ resIdx, preTarget, preTarget2 int }
	var fixes []braFix

	callIdx, indirectIdx := 0, 0
	for pi := range f.Code {
		posMap[pi] = len(res.Code)
		in := f.Code[pi]
		switch in.Op {
		case isa.OpBra:
			fixes = append(fixes, braFix{len(res.Code), in.Target, in.Target2})
			res.Code = append(res.Code, in)
		case isa.OpCallI:
			res.IndirectTargets = append(res.IndirectTargets, f.IndirectTargets[indirectIdx])
			for _, t := range f.IndirectTargets[indirectIdx] {
				kept[t] = true
			}
			indirectIdx++
			res.Code = append(res.Code, in)
		case isa.OpMovI:
			if name, ok := f.FuncRefs[pi]; ok {
				res.FuncRefs[len(res.Code)] = name
				kept[name] = true
			}
			res.Code = append(res.Code, in)
		case isa.OpCall:
			name := f.CallNames[callIdx]
			callIdx++
			callee, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("abi: %s calls undefined %q", f.Name, name)
			}
			keepCall := func() {
				in.Callee = len(res.CallNames)
				res.Code = append(res.Code, in)
				res.CallNames = append(res.CallNames, name)
				kept[name] = true
			}
			if chain[name] {
				keepCall()
				continue
			}
			chain[name] = true
			flatCallee, err := flatten(index, kept, callee, chain, maxRegs)
			if err != nil {
				return nil, err
			}
			delete(chain, name)
			if allocTop+maxCalleeReg(flatCallee) > maxRegs {
				keepCall()
				continue
			}
			splice(res, flatCallee, allocTop, extraTop, kept)
			newTop := allocTop + maxCalleeReg(flatCallee)
			if newTop > res.RegsUsed {
				res.RegsUsed = newTop
			}
			allocTop = newTop
			extraTop += flatCallee.ExtraLocalBytes
			res.ExtraLocalBytes = extraTop
		default:
			res.Code = append(res.Code, in)
		}
	}
	posMap[len(f.Code)] = len(res.Code)
	for _, fx := range fixes {
		res.Code[fx.resIdx].Target = posMap[fx.preTarget]
		res.Code[fx.resIdx].Target2 = posMap[fx.preTarget2]
	}
	// A kept (still-callable) function now touches every register its
	// inlined children were remapped onto; the ABI requires it to
	// preserve all of them, or callers lose live state above R16 across
	// the call (e.g. loop counters clobbered by a recursive callee).
	if !f.IsKernel {
		if cs := res.RegsUsed - isa.FirstCalleeSaved; cs > res.CalleeSaved {
			res.CalleeSaved = cs
		}
	}
	return res, nil
}

// splice appends the flattened callee body (minus its trailing Ret) to
// res, remapping callee-saved registers to start at allocTop, shifting
// R1-relative extra-local offsets by extraTop, and relocating call and
// branch metadata. Builder invariants guarantee the Ret is the final
// instruction, so dropping it leaves all intra-body indices intact and
// any branch targeting the Ret lands on the next spliced instruction.
func splice(res, flatCallee *kir.Func, allocTop, extraTop int, kept map[string]bool) {
	base := len(res.Code)
	remap := func(r uint8) uint8 {
		if r == isa.NoReg || int(r) < isa.FirstCalleeSaved {
			return r
		}
		return uint8(allocTop + int(r) - isa.FirstCalleeSaved)
	}
	indirectIdx := 0
	for bi := range flatCallee.Code {
		ci := flatCallee.Code[bi]
		if ci.Op == isa.OpRet {
			continue
		}
		ci.Dst = remap(ci.Dst)
		ci.SrcA = remap(ci.SrcA)
		ci.SrcB = remap(ci.SrcB)
		ci.SrcC = remap(ci.SrcC)
		if ci.Op == isa.OpBra {
			ci.Target += base
			ci.Target2 += base
		}
		if ci.Op.IsLocal() && ci.SrcA == RegSP {
			ci.Imm += int32(extraTop)
		}
		if ci.Op == isa.OpCall {
			cn := flatCallee.CallNames[ci.Callee]
			ci.Callee = len(res.CallNames)
			res.CallNames = append(res.CallNames, cn)
			kept[cn] = true
		}
		if ci.Op == isa.OpCallI {
			res.IndirectTargets = append(res.IndirectTargets, flatCallee.IndirectTargets[indirectIdx])
			indirectIdx++
		}
		res.Code = append(res.Code, ci)
	}
	for fi2, name2 := range flatCallee.FuncRefs {
		res.FuncRefs[fi2+base] = name2
		kept[name2] = true
	}
}
