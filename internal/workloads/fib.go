package workloads

import (
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
)

// registerFIB builds the recursive Fibonacci workload (Table I's FIB).
// Each lane computes fib(base + lane-dependent offset) by naive
// recursion, so warps carry divergent call trees with lane-varying
// depth — the cyclic-call-graph case of §III-C, where High-watermark
// cannot statically bound the stack and CARS must trap when the input
// drives the call depth past the allocation (§VI-C).
func registerFIB() {
	// fib(n): R4 = n on entry, fib(n) on exit. Uses two callee-saved
	// registers: R16 holds n, R17 holds fib(n-1).
	fib := kir.NewFunc("fib").SetCalleeSaved(2)
	fib.Mov(16, 4).
		MovI(17, 0).
		IMad(2, 4, 4, 16).
		XorI(2, 2, 0x3F).
		IMad(2, 2, 4, 16).
		ShrI(2, 2, 3).
		IMad(2, 2, 2, 16).
		Xor(2, 2, 16).
		SetPI(0, isa.CmpGE, 4, 2).
		If(0, func(b *kir.Builder) {
			b.IAddI(4, 16, -1).
				Call("fib").
				Mov(17, 4).
				IAddI(4, 16, -2).
				Call("fib").
				IAdd(4, 4, 17)
		}, nil).
		Ret()

	k := kir.NewKernel("FIB_kernel")
	k.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		IMad(17, 9, 10, 8). // global tid
		ShlI(12, 17, 2).
		IAdd(19, 4, 12). // out + 4*tid
		AndI(4, 17, 7).
		IAdd(4, 4, 5). // n = base + (tid & 7)  (max depth 8, as Table I)
		Call("fib").
		StG(19, 0, 4).
		Exit()

	w := &Workload{
		Name:           "FIB",
		Suite:          "Recursive",
		PaperCallDepth: 8,
		PaperCPKI:      22.41,
		SpeedupFactor:  "L1D bandwidth contention",
	}
	// Build once: Modules runs concurrently when configurations
	// simulate FIB in parallel, and Build writes the function it
	// returns. The built functions are shared read-only.
	kf, ff := k.MustBuild(), fib.MustBuild()
	w.Modules = func() []*kir.Module {
		main := &kir.Module{Name: "FIB_main"}
		lib := &kir.Module{Name: "FIB_lib"}
		main.AddFunc(kf)
		lib.AddFunc(ff)
		return []*kir.Module{main, lib}
	}
	w.Setup = func(g *sim.GPU) ([]isa.Launch, error) {
		const grid, block = 64, 64
		out := g.Alloc(grid * block)
		w.setOutput(out, grid*block)
		return []isa.Launch{{
			Kernel: "FIB_kernel",
			Dim:    isa.Dim3{Grid: grid, Block: block},
			Params: []uint32{out, 1}, // R4 = out, R5 = base n
		}}, nil
	}
	register(w)
}

// FibRef is the reference fib used by tests to validate the recursive
// workload's functional output.
func FibRef(n int) uint32 {
	if n < 2 {
		return uint32(n)
	}
	a, b := uint32(0), uint32(1)
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}
