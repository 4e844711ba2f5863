package workloads

import (
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
	"carsgo/internal/spec"
)

// registerPTA builds the Points-to Analysis application: the paper's
// most call-intensive workload (depth 9, CPKI 46) and the only one
// whose kernels exercise context switching (§VI-B, Fig. 14, Table III).
//
// Like the real PTA, the app launches a sequence of heterogeneous
// kernels per iteration: over half perform no function calls at all,
// one (K1) combines barriers with register demand beyond what an SM can
// host at High-watermark (forcing context switches), and others span
// shallow and deep call chains. Two iterations of the kernel sequence
// run per invocation so the Fig. 5 state machine's cross-launch memory
// is exercised.
func ptaKernelParams() []chainParams {
	return []chainParams{
		// K1: deep chain, barriers, heavy register demand. High-watermark
		// cannot host a full 512-thread block, so CARS context-switches
		// at barriers — yet High still wins on call depth (§VI-B).
		{
			name: "PTA_K1", grid: 16, block: 512, iters: 8,
			pattern: spec.PatRandLine, footprintWords: 1 << 15,
			kernelLoads: 1, kernelALU: 2, kernelRegs: 40, barrierEvery: 4,
			depth: 9, calleeSaved: []int{12, 12, 12, 12, 12, 12, 12, 12, 12}, funcALU: 1,
		},
		// K2: shallow call chain, small frames.
		{
			name: "PTA_K2", grid: 48, block: 128, iters: 10,
			pattern: spec.PatRandLine, footprintWords: 1 << 14,
			kernelLoads: 1, kernelALU: 4,
			depth: 1, calleeSaved: []int{3}, funcALU: 6, leafLoads: 1,
		},
		// K3: barriers with moderate depth: context switches would hurt,
		// so the state machine should avoid High (Fig. 14's K3 case).
		// K3: a barrier every iteration with two medium frames: Low fits
		// every warp and traps moderately, while High cannot host the
		// block and context-switches at each barrier wave — the Fig. 14
		// kernel where High loses (§VI-B's K3).
		{
			name: "PTA_K3", grid: 16, block: 512, iters: 12,
			pattern: spec.PatRandLine, footprintWords: 1 << 14,
			kernelLoads: 1, kernelALU: 3, kernelRegs: 60, barrierEvery: 1,
			depth: 3, calleeSaved: []int{6, 6, 40}, funcALU: 3,
		},
		// K4-K6: no function calls (over half of PTA's kernels call no
		// functions; Low and High degenerate to the same allocation).
		{
			name: "PTA_K4", grid: 32, block: 256, iters: 5,
			pattern: spec.PatRandLine, footprintWords: 1 << 14,
			kernelLoads: 2, kernelALU: 6, depth: 0,
		},
		{
			name: "PTA_K5", grid: 32, block: 256, iters: 4,
			pattern: spec.PatStream, footprintWords: 1 << 16,
			kernelLoads: 2, kernelALU: 8, depth: 0,
		},
		{
			name: "PTA_K6", grid: 32, block: 128, iters: 8,
			pattern: spec.PatGather, footprintWords: 1 << 13,
			kernelLoads: 1, kernelALU: 4, depth: 0,
		},
		// K7: the dominant personality: very call-heavy, bandwidth-bound.
		{
			name: "PTA_K7", grid: 64, block: 256, iters: 5,
			pattern: spec.PatRandLine, footprintWords: 1 << 15,
			kernelLoads: 1, kernelALU: 1,
			depth: 9, calleeSaved: []int{3, 3, 2, 2, 2, 2, 1, 1, 1}, funcALU: 1, funcLoadEvery: 3,
		},
		// K8: moderate depth and mix.
		{
			name: "PTA_K8", grid: 48, block: 128, iters: 8,
			pattern: spec.PatRandLine, footprintWords: 1 << 14,
			kernelLoads: 1, kernelALU: 2,
			depth: 3, calleeSaved: []int{5, 4, 3}, funcALU: 2, leafLoads: 1,
		},
	}
}

// ptaKernels expands PTA's kernel table into one spec per kernel.
func ptaKernels() []*spec.Spec {
	ps := ptaKernelParams()
	specs := make([]*spec.Spec, len(ps))
	for i := range ps {
		specs[i] = ps[i].spec()
	}
	return specs
}

// PTAKernelNames lists the kernel entry points of PTA in launch order
// (used by the Fig. 14 per-kernel study).
func PTAKernelNames() []string {
	var names []string
	for _, s := range ptaKernels() {
		names = append(names, s.KernelName())
	}
	return names
}

func registerPTA() {
	w := &Workload{
		Name:           "PTA",
		Suite:          "LoneStar",
		PaperCallDepth: 9,
		PaperCPKI:      46.11,
		SpeedupFactor:  "L1D bandwidth contention",
	}
	w.Modules = func() []*kir.Module {
		var ms []*kir.Module
		for _, s := range ptaKernels() {
			ms = append(ms, s.Modules()...)
		}
		return ms
	}
	// One output region shared by every kernel, then each kernel's data
	// array; Spec.Build would interleave the two per kernel.
	w.Setup = func(g *sim.GPU) ([]isa.Launch, error) {
		specs := ptaKernels()
		totalOut := 0
		for _, s := range specs {
			totalOut += s.Grid * s.Block
		}
		out := g.Alloc(totalOut)
		w.setOutput(out, totalOut)

		datas := make([]uint32, len(specs))
		for i, s := range specs {
			words := s.FootprintWords + 32*(s.Kernel.Loads+1)
			datas[i] = g.Alloc(words)
			spec.Fill(g, datas[i], words)
		}
		var launches []isa.Launch
		const iterations = 2
		for it := 0; it < iterations; it++ {
			off := out
			for i, s := range specs {
				launches = append(launches, isa.Launch{
					Kernel:      s.KernelName(),
					Dim:         isa.Dim3{Grid: s.Grid, Block: s.Block},
					SharedBytes: s.Kernel.SmemWords * 4,
					Params:      []uint32{off, datas[i], uint32(s.FootprintWords - 1), uint32(s.Iters)},
				})
				off += uint32(s.Grid * s.Block * 4)
			}
		}
		return launches, nil
	}
	register(w)
}
