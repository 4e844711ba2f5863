package workloads

import (
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
)

// Deliberately-broken synchronization workloads, plus clean
// counterparts differing only in the defect. They anchor the negative
// side of the static/dynamic differential: internal/vet must flag each
// defect, the sanitizer must observe it at runtime, and the clean
// twins must pass both (san.DiffNegatives). None of them is part of
// the Table I corpus.

func init() {
	registerRacyShare()
	registerCleanShare()
	registerRacyBarrier()
	registerCleanBarrier()
}

// negSmemWords must cover every thread index the architecture allows
// (isa.MaxBlockThreads): the static analysis reasons over the full
// lane/warp range, so a smaller power-of-two mask would not prove the
// per-thread slots disjoint.
const negSmemWords = isa.MaxBlockThreads

// negSetup is the shared launch shape: one block so every conflict is
// intra-block, with a small output region for the kernel's StG.
func negSetup(w *Workload, kernel string) func(g *sim.GPU) ([]isa.Launch, error) {
	return func(g *sim.GPU) ([]isa.Launch, error) {
		const grid, block = 1, 64
		out := g.Alloc(grid * block)
		w.setOutput(out, grid*block)
		return []isa.Launch{{
			Kernel:      kernel,
			Dim:         isa.Dim3{Grid: grid, Block: block},
			Params:      []uint32{out},
			SharedBytes: negSmemWords * 4,
		}}, nil
	}
}

// oneKernelModule builds k once (as FIB does, so concurrent runs share
// the built function read-only) and wraps it in a fresh module per call.
func oneKernelModule(name string, k *kir.Builder) func() []*kir.Module {
	f := k.MustBuild()
	return func() []*kir.Module {
		m := &kir.Module{Name: name + "_main"}
		m.AddFunc(f)
		return []*kir.Module{m}
	}
}

// registerRacyShare: every thread stores to shared word 0 and loads it
// back with no barrier in between — a write/write and read/write race
// across all threads of the block.
func registerRacyShare() {
	k := kir.NewKernel("NEG_RacyShare_kernel")
	k.S2R(8, isa.SrTID).
		MovI(9, 0).
		StS(9, 0, 8). // all threads: shared[0] = tid
		LdS(10, 9, 0).
		ShlI(11, 8, 2).
		IAdd(11, 4, 11).
		StG(11, 0, 10).
		Exit()

	w := &Workload{
		Name:   "NEG_RacyShare",
		Suite:  "Negative",
		Expect: Expect{SharedRace: true},
	}
	w.Modules = oneKernelModule(w.Name, k)
	w.Setup = negSetup(w, "NEG_RacyShare_kernel")
	registerNegative(w)
}

// registerCleanShare is the race-free twin: each thread owns shared
// word tid, and a barrier orders the (still per-thread) reload.
func registerCleanShare() {
	k := kir.NewKernel("NEG_CleanShare_kernel")
	k.S2R(8, isa.SrTID).
		AndI(9, 8, negSmemWords-1).
		ShlI(9, 9, 2).
		StS(9, 0, 8). // shared[tid] = tid
		Bar().
		LdS(10, 9, 0).
		ShlI(11, 8, 2).
		IAdd(11, 4, 11).
		StG(11, 0, 10).
		Exit()

	w := &Workload{
		Name:  "NEG_CleanShare",
		Suite: "Negative",
	}
	w.Modules = oneKernelModule(w.Name, k)
	w.Setup = negSetup(w, "NEG_CleanShare_kernel")
	registerNegative(w)
}

// registerRacyBarrier: BAR.SYNC inside a lane-parity conditional.
// Every warp still reaches the barrier exactly once (half its lanes
// are odd), so the block does not deadlock — but each warp arrives
// with a partial mask, the §II barrier-divergence defect.
func registerRacyBarrier() {
	k := kir.NewKernel("NEG_RacyBarrier_kernel")
	k.S2R(8, isa.SrLaneID).
		AndI(9, 8, 1).
		SetPI(0, isa.CmpNE, 9, 0).
		If(0, func(b *kir.Builder) { b.Bar() }, nil).
		S2R(10, isa.SrTID).
		ShlI(11, 10, 2).
		IAdd(11, 4, 11).
		StG(11, 0, 10).
		Exit()

	w := &Workload{
		Name:   "NEG_RacyBarrier",
		Suite:  "Negative",
		Expect: Expect{BarrierDivergence: true},
	}
	w.Modules = oneKernelModule(w.Name, k)
	w.Setup = negSetup(w, "NEG_RacyBarrier_kernel")
	registerNegative(w)
}

// registerCleanBarrier is the divergence-free twin: the same shape,
// but the predicate is a launch parameter, identical across the block,
// so every warp takes the same side with a full mask.
func registerCleanBarrier() {
	k := kir.NewKernel("NEG_CleanBarrier_kernel")
	k.AndI(9, 5, 1).
		SetPI(0, isa.CmpEQ, 9, 0).
		If(0, func(b *kir.Builder) { b.Bar() }, nil).
		S2R(10, isa.SrTID).
		ShlI(11, 10, 2).
		IAdd(11, 4, 11).
		StG(11, 0, 10).
		Exit()

	w := &Workload{
		Name:  "NEG_CleanBarrier",
		Suite: "Negative",
	}
	w.Modules = oneKernelModule(w.Name, k)
	w.Setup = negSetup(w, "NEG_CleanBarrier_kernel")
	registerNegative(w)
}
