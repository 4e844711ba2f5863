package isa

import (
	"fmt"
	"strings"
)

// Function is a compiled device function or kernel entry point.
type Function struct {
	Name string
	Code []Instruction

	// IsKernel marks __global__ entry points.
	IsKernel bool

	// RegsUsed is the number of architectural registers the function
	// body uses (max register index + 1), before any stack accounting.
	RegsUsed int

	// CalleeSaved is the number of callee-saved registers the function
	// preserves. They are the contiguous set R16..R16+CalleeSaved-1.
	// This is the function's FRU (Function Register Usage) in the paper:
	// the additional register-stack space a call to it demands.
	CalleeSaved int

	// LocalFrameBytes is the per-thread local-memory frame the baseline
	// ABI reserves for this function's spill slots and locals.
	LocalFrameBytes int

	// Callees lists the function indices of direct call targets after
	// linking (one entry per call site, in code order).
	Callees []int

	// IndirectTargets lists, per indirect call site, the set of possible
	// function indices (from the static analysis of the call point).
	IndirectTargets [][]int
}

// FRU returns the function register usage: the extra register-stack slots
// a call to this function consumes under CARS. It counts the callee-saved
// registers the function pushes plus one slot for the saved RFP, which
// every call consumes (the PUSHRFP micro-op precedes every call, §IV-A),
// so even a function that saves nothing has an FRU of one.
func (f *Function) FRU() int {
	return f.CalleeSaved + 1
}

// Disassemble renders the function's code with instruction indices.
func (f *Function) Disassemble() string {
	var b strings.Builder
	kind := "func"
	if f.IsKernel {
		kind = "kernel"
	}
	fmt.Fprintf(&b, "%s %s (regs=%d callee-saved=%d frame=%dB):\n",
		kind, f.Name, f.RegsUsed, f.CalleeSaved, f.LocalFrameBytes)
	for i := range f.Code {
		fmt.Fprintf(&b, "  %4d: %s\n", i, f.Code[i].String())
	}
	return b.String()
}

// Program is a linked executable: a set of functions with resolved call
// targets, entry kernels, and link-time metadata the hardware consumes.
type Program struct {
	Funcs []*Function

	// Kernels maps kernel name to function index.
	Kernels map[string]int

	// StaticRegsPerWarp is the worst-case per-thread register count the
	// baseline linker computes across the call graph (§II): the register
	// allocation each warp receives on the baseline machine.
	StaticRegsPerWarp int

	// CARS reports whether the program was compiled with CARS push/pop
	// micro-ops instead of baseline LDL/STL spills.
	CARS bool

	// SmemSpillPerThread is the per-thread shared-memory spill frame in
	// bytes for programs compiled with the SharedSpill ABI (a CRAT-like
	// comparator: spills go to shared memory instead of the L1D). Zero
	// for other modes. The simulator reserves blockThreads times this
	// much extra shared memory per block — the occupancy cost of the
	// scheme — and initialises each thread's R0 as its spill pointer.
	SmemSpillPerThread int
}

// Kernel returns the function index for a named kernel.
func (p *Program) Kernel(name string) (int, error) {
	idx, ok := p.Kernels[name]
	if !ok {
		return 0, fmt.Errorf("isa: kernel %q not found", name)
	}
	return idx, nil
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Validate checks structural invariants of the linked program: call
// targets in range, branch targets within the function, each
// function's declared usage (RegsUsed) within MaxArchRegs, and the
// per-site call metadata (Callees, IndirectTargets) consistent with the
// code and in range — indirect targets outside the program would
// otherwise only surface as a fault when the simulator resolves the
// call. Entry k of Callees must name the k-th CALL's target: the
// call-graph analysis reads Callees while the simulator and vet read
// the instruction, so a disagreement would size register stacks for a
// different program. Register operands are checked against the
// architectural limit only, which an 8-bit operand always meets, not
// against the function's declared usage; an operand that names R255
// reads as NoReg, "no register", so the assembler refuses to encode it.
func (p *Program) Validate() error {
	for fi, f := range p.Funcs {
		calls, indirects := 0, 0
		for ii := range f.Code {
			in := &f.Code[ii]
			switch in.Op {
			case OpCall:
				if in.Callee < 0 || in.Callee >= len(p.Funcs) {
					return fmt.Errorf("isa: %s[%d]: call target %d out of range", f.Name, ii, in.Callee)
				}
				if calls < len(f.Callees) && f.Callees[calls] != in.Callee {
					return fmt.Errorf("isa: %s[%d]: callee entry %d names function %d but the call targets %d",
						f.Name, ii, calls, f.Callees[calls], in.Callee)
				}
				calls++
			case OpCallI:
				indirects++
			}
			if in.Op == OpBra {
				if t := in.Target; t < 0 || t > len(f.Code) {
					return fmt.Errorf("isa: %s[%d]: branch target %d out of range", f.Name, ii, t)
				}
				if in.Pred != NoPred &&
					(in.Target2 < 0 || in.Target2 > len(f.Code)) {
					return fmt.Errorf("isa: %s[%d]: reconvergence target %d out of range", f.Name, ii, in.Target2)
				}
			}
			if in.Op == OpSSY {
				// Unlike BRA, an SSY reconvergence point one past the end
				// of the function would leave the SIMT stack holding a PC
				// that never executes: require a real instruction index.
				if t := in.Target2; t < 0 || t >= len(f.Code) {
					return fmt.Errorf("isa: %s[%d]: SSY reconvergence target %d out of range", f.Name, ii, t)
				}
			}
			if in.Op == OpBar && in.Pred != NoPred {
				// A guarded BAR.SYNC means predicated-off lanes skip the
				// barrier their warp arrives at: reject it outright.
				return fmt.Errorf("isa: %s[%d]: BAR.SYNC must not carry a guard predicate", f.Name, ii)
			}
			for _, r := range in.Reads(nil) {
				if int(r) >= MaxArchRegs {
					return fmt.Errorf("isa: %s[%d]: register R%d exceeds limit", f.Name, ii, r)
				}
			}
			if in.Dst != NoReg && int(in.Dst) >= MaxArchRegs {
				return fmt.Errorf("isa: %s[%d]: dest register R%d exceeds limit", f.Name, ii, in.Dst)
			}
		}
		if len(f.Callees) != calls {
			return fmt.Errorf("isa: %s: %d direct call sites but %d callee entries", f.Name, calls, len(f.Callees))
		}
		if len(f.IndirectTargets) != indirects {
			return fmt.Errorf("isa: %s: %d indirect call sites but %d candidate sets", f.Name, indirects, len(f.IndirectTargets))
		}
		for si, cands := range f.IndirectTargets {
			for _, ti := range cands {
				if ti < 0 || ti >= len(p.Funcs) {
					return fmt.Errorf("isa: %s: indirect candidate set %d targets function %d, out of range", f.Name, si, ti)
				}
			}
		}
		if f.RegsUsed > MaxArchRegs {
			return fmt.Errorf("isa: func %d (%s) uses %d regs > %d", fi, f.Name, f.RegsUsed, MaxArchRegs)
		}
	}
	for name, idx := range p.Kernels {
		if idx < 0 || idx >= len(p.Funcs) {
			return fmt.Errorf("isa: kernel %q index %d out of range", name, idx)
		}
		if !p.Funcs[idx].IsKernel {
			return fmt.Errorf("isa: kernel %q maps to non-kernel function %s", name, p.Funcs[idx].Name)
		}
	}
	return nil
}

// Dim3 is a CUDA-style 1-D launch dimension pair. The simulator flattens
// grids and blocks to one dimension; multi-dimensional kernels index
// through arithmetic, as real SASS does.
type Dim3 struct {
	Grid  int // blocks per grid
	Block int // threads per block
}

// Warps returns warps per block, rounding up to whole warps.
func (d Dim3) Warps() int { return (d.Block + WarpSize - 1) / WarpSize }

// Launch describes one kernel launch.
type Launch struct {
	Kernel      string
	Dim         Dim3
	SharedBytes int // dynamic shared memory per block

	// Params are kernel parameters, deposited in R4.. of every thread
	// at block start (modelling the constant-bank parameter load).
	Params []uint32
}
