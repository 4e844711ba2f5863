package workloads

import (
	"fmt"

	"carsgo/internal/spec"
)

// chainParams is the compact table form of a call-chain application:
// spec() expands it into the declarative workload spec it stands for.
type chainParams struct {
	name  string
	suite string

	grid, block, iters int
	launches           int // kernel invocations; 0 = 2 (exercises the Fig. 5 memory)

	pattern        string // a spec.Pat* access pattern
	footprintWords int    // power of two
	regionWords    int    // power of two, for spec.PatRegion

	kernelLoads     int // global loads per iteration in the kernel body
	kernelALU       int // filler ALU per iteration
	kernelRegs      int // extra kernel-resident registers to inflate base
	extraLocalWords int // per-thread "other local" words touched per iter
	barrierEvery    int // 0 = no barriers; N = barrier every Nth iter (pow2)
	smemWords       int // shared-memory staging per block

	depth         int   // call-chain depth (0 = no calls)
	callEvery     int   // 0/1 = call chain every iter; N (pow2) = every Nth
	calleeSaved   []int // per level; last entry repeats
	funcALU       int   // ALU ops inside each device function
	funcLoads     int   // gather loads inside every device function
	funcLoadEvery int   // additionally, one gather at every Nth chain level
	leafLoads     int   // extra gather loads in the leaf function
	indirect      bool  // level 0 dispatches level 1 via function pointer

	paperDepth int
	paperCPKI  float64
	factor     string
}

// spec expands the parameters: one device function per chain level,
// salted by its level, each calling the next. With indirect set, level
// 1 is an a/b pair that level 0 reaches through a function pointer,
// and b tags its result so the two variants compute different values.
// Applications launch their kernels repeatedly (as the paper's do),
// which is what lets the Fig. 5 state machine's cross-launch memory
// converge, so launches defaults to two.
func (p chainParams) spec() *spec.Spec {
	s := &spec.Spec{
		Schema: spec.SchemaVersion, Name: p.name,
		Grid: p.grid, Block: p.block, Iters: p.iters, Launches: p.launches,
		Pattern: p.pattern, FootprintWords: p.footprintWords, RegionWords: p.regionWords,
		Kernel: spec.KernelSpec{
			Loads: p.kernelLoads, ALU: p.kernelALU, Regs: p.kernelRegs,
			ExtraLocalWords: p.extraLocalWords, BarrierEvery: p.barrierEvery,
			SmemWords: p.smemWords, CallEvery: p.callEvery,
		},
	}
	if s.Launches == 0 {
		s.Launches = 2
	}
	fn := func(lvl int, variant string) string { return fmt.Sprintf("%s_f%d%s", p.name, lvl, variant) }
	if p.depth > 0 {
		s.Kernel.Calls = []string{fn(0, "")}
	}
	for lvl := 0; lvl < p.depth; lvl++ {
		f := spec.FuncSpec{
			Name:        fn(lvl, ""),
			CalleeSaved: p.calleeSaved[min(lvl, len(p.calleeSaved)-1)],
			ALU:         p.funcALU,
			Loads:       p.funcLoads,
			Salt:        lvl,
		}
		if p.funcLoadEvery > 0 && lvl%p.funcLoadEvery == 0 {
			f.Loads++
		}
		switch {
		case lvl == p.depth-1:
			f.Loads += p.leafLoads
		case p.indirect && lvl == 0:
			f.Indirect = []string{fn(1, "a"), fn(1, "b")}
		default:
			f.Calls = []string{fn(lvl+1, "")}
		}
		if p.indirect && lvl == 1 {
			a, b := f, f
			a.Name, b.Name, b.XorTag = fn(1, "a"), fn(1, "b"), 0x5A5A
			s.Funcs = append(s.Funcs, a, b)
			continue
		}
		s.Funcs = append(s.Funcs, f)
	}
	return s
}

// workload builds the application: the workload its spec describes,
// tagged with its suite and Table I metadata.
func (p chainParams) workload() *Workload {
	w := FromSpec(p.spec())
	w.Suite = p.suite
	w.PaperCallDepth, w.PaperCPKI, w.SpeedupFactor = p.paperDepth, p.paperCPKI, p.factor
	return w
}

// chainWorkload builds a chain application and registers it in the
// Table I corpus.
func chainWorkload(p chainParams) { register(p.workload()) }

// The 22 function-calling workloads of Table I, registered in table
// order. Each entry is parameterised to land near the paper's reported
// call depth and CPKI and in its Table II bottleneck class:
//
//   - bandwidth-bound workloads use small footprints with random line
//     access and frequent calls, so spill sectors fight for L1D ports;
//   - capacity-and-contention workloads give each warp a reused region
//     whose per-SM sum slightly exceeds the L1;
//   - capacity-bound ML layers stream multi-MB footprints with reuse
//     distances only a 10MB cache can hold;
//   - low-occupancy layers run too few warps to hide latency.
func init() {
	// --- LoneStar ---
	registerPTA() // PTA: bespoke multi-kernel app (Fig. 14, Table III)

	chainWorkload(chainParams{
		name: "DMR", suite: "LoneStar",
		grid: 48, block: 256, iters: 24,
		pattern: spec.PatRegion, footprintWords: 1 << 20, regionWords: 1024,
		kernelLoads: 3, kernelALU: 5, extraLocalWords: 2,
		depth: 1, calleeSaved: []int{6}, funcALU: 12, leafLoads: 1,
		paperDepth: 1, paperCPKI: 11.61, factor: "L1D capacity and contention",
	})
	chainWorkload(chainParams{
		name: "MST", suite: "LoneStar",
		grid: 96, block: 256, iters: 10, launches: 2,
		pattern: spec.PatRegion, footprintWords: 1 << 20, regionWords: 1024,
		kernelLoads: 4, kernelALU: 2, kernelRegs: 8,
		depth: 5, calleeSaved: []int{6, 5, 4, 3, 2}, funcALU: 5, leafLoads: 1,
		paperDepth: 5, paperCPKI: 20.75, factor: "L1D capacity and contention",
	})
	chainWorkload(chainParams{
		name: "SSSP", suite: "LoneStar",
		grid: 48, block: 256, iters: 14,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 4, kernelALU: 22,
		depth: 3, calleeSaved: []int{3, 3, 2}, funcALU: 28, leafLoads: 1,
		paperDepth: 3, paperCPKI: 6.30, factor: "L1D bandwidth contention",
	})

	// --- Rodinia ---
	chainWorkload(chainParams{
		name: "CFD", suite: "Rodinia",
		grid: 48, block: 192, iters: 24,
		pattern: spec.PatRegion, footprintWords: 1 << 20, regionWords: 1024,
		kernelLoads: 4, kernelALU: 4, smemWords: 1024,
		depth: 3, calleeSaved: []int{5, 4, 3}, funcALU: 8, leafLoads: 1,
		paperDepth: 3, paperCPKI: 17.48, factor: "L1D capacity and contention",
	})

	// --- ParaPoly ---
	chainWorkload(chainParams{
		name: "TRAF", suite: "ParaPoly",
		grid: 64, block: 128, iters: 12,
		pattern: spec.PatRandLine, footprintWords: 1 << 14,
		kernelLoads: 3, kernelALU: 60,
		depth: 3, calleeSaved: []int{3, 2, 2}, funcALU: 70, funcLoadEvery: 1,
		paperDepth: 3, paperCPKI: 3.13, factor: "L1D bandwidth contention",
	})
	chainWorkload(chainParams{
		name: "GOL", suite: "ParaPoly",
		grid: 64, block: 128, iters: 28,
		pattern: spec.PatRegion, footprintWords: 1 << 19, regionWords: 2048,
		kernelLoads: 6, kernelALU: 6, smemWords: 8192,
		depth: 1, calleeSaved: []int{5}, funcALU: 16, leafLoads: 1,
		paperDepth: 1, paperCPKI: 7.05, factor: "L1D capacity and contention",
	})
	chainWorkload(chainParams{
		name: "NBD", suite: "ParaPoly",
		grid: 48, block: 128, iters: 20,
		pattern: spec.PatGather, footprintWords: 1 << 14,
		kernelLoads: 1, kernelALU: 6,
		depth: 2, calleeSaved: []int{2, 1}, funcALU: 8, funcLoads: 1,
		paperDepth: 2, paperCPKI: 21.40, factor: "L1D bandwidth contention",
	})
	chainWorkload(chainParams{
		name: "COLI", suite: "ParaPoly",
		grid: 64, block: 128, iters: 24,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 2, kernelALU: 8, indirect: true,
		depth: 3, calleeSaved: []int{2, 2, 1}, funcALU: 9, leafLoads: 1,
		paperDepth: 3, paperCPKI: 19.54, factor: "L1D bandwidth contention",
	})
	chainWorkload(chainParams{
		name: "STUT", suite: "ParaPoly",
		grid: 96, block: 256, iters: 10, launches: 2,
		pattern: spec.PatRegion, footprintWords: 1 << 20, regionWords: 1024,
		kernelLoads: 4, kernelALU: 8, indirect: true,
		depth: 3, calleeSaved: []int{5, 4, 3}, funcALU: 14, leafLoads: 1,
		paperDepth: 3, paperCPKI: 10.94, factor: "L1D capacity and contention",
	})
	chainWorkload(chainParams{
		name: "RAY", suite: "ParaPoly",
		grid: 48, block: 128, iters: 16,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 2, kernelALU: 6, indirect: true, extraLocalWords: 4,
		depth: 4, calleeSaved: []int{2, 2, 1, 1}, funcALU: 9, leafLoads: 1,
		paperDepth: 4, paperCPKI: 19.71, factor: "L1D bandwidth contention",
	})

	// --- Department of Energy ---
	chainWorkload(chainParams{
		name: "LULESH", suite: "DOE",
		grid: 48, block: 256, iters: 5,
		pattern: spec.PatStream, footprintWords: 1 << 18,
		kernelLoads: 8, kernelALU: 130,
		depth: 3, calleeSaved: []int{1, 1, 1}, funcALU: 110, leafLoads: 1,
		paperDepth: 3, paperCPKI: 2.84, factor: "Low total local memory access count",
	})

	// --- Recursive ---
	registerFIB()

	// --- MLPerf / Cutlass layers ---
	chainWorkload(chainParams{
		name: "Bert_LT", suite: "MLPerf",
		grid: 96, block: 256, iters: 16,
		pattern: spec.PatStream, footprintWords: 1 << 21,
		kernelLoads: 5, kernelALU: 6, smemWords: 2048,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 17.01, factor: "L1D capacity",
	})
	chainWorkload(chainParams{
		name: "Bert_AtScore", suite: "MLPerf",
		grid: 8, block: 128, iters: 48,
		pattern: spec.PatStream, footprintWords: 1 << 22,
		kernelLoads: 4, kernelALU: 6,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 17.62, factor: "Low occupancy",
	})
	chainWorkload(chainParams{
		name: "Bert_AtOp", suite: "MLPerf",
		grid: 12, block: 128, iters: 40,
		pattern: spec.PatStream, footprintWords: 1 << 22,
		kernelLoads: 4, kernelALU: 7,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 17.48, factor: "Low occupancy",
	})
	chainWorkload(chainParams{
		name: "Bert_FC", suite: "MLPerf",
		grid: 96, block: 256, iters: 16,
		pattern: spec.PatStream, footprintWords: 1 << 21,
		kernelLoads: 5, kernelALU: 7, smemWords: 2048,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 17.01, factor: "L1D capacity",
	})
	chainWorkload(chainParams{
		name: "Resnet_FP", suite: "MLPerf",
		grid: 96, block: 256, iters: 16,
		pattern: spec.PatRegion, footprintWords: 1 << 20, regionWords: 2048,
		kernelLoads: 4, kernelALU: 6, smemWords: 2048,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 17.04, factor: "L1D capacity and contention",
	})
	chainWorkload(chainParams{
		name: "Resnet_WG", suite: "MLPerf",
		grid: 96, block: 256, iters: 16,
		pattern: spec.PatStream, footprintWords: 1 << 21,
		kernelLoads: 4, kernelALU: 7, smemWords: 2048,
		depth: 5, calleeSaved: []int{4, 3, 3, 2, 2}, funcALU: 9, funcLoadEvery: 3,
		paperDepth: 5, paperCPKI: 16.91, factor: "L1D capacity",
	})

	// --- Rapids ---
	chainWorkload(chainParams{
		name: "SVR", suite: "Rapids",
		grid: 96, block: 128, iters: 5, launches: 5,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 2, kernelALU: 3,
		depth: 17, calleeSaved: []int{3, 3, 2, 2, 2}, funcALU: 2, funcLoadEvery: 5,
		paperDepth: 17, paperCPKI: 47.03, factor: "L1D bandwidth contention",
	})
	chainWorkload(chainParams{
		name: "KMEAN", suite: "Rapids",
		grid: 96, block: 128, iters: 6, launches: 5,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 2, kernelALU: 4,
		depth: 14, calleeSaved: []int{3, 3, 2, 2, 2}, funcALU: 3, funcLoadEvery: 5,
		paperDepth: 14, paperCPKI: 41.23, factor: "L1D bandwidth contention",
	})
	chainWorkload(chainParams{
		name: "RF", suite: "Rapids",
		grid: 96, block: 128, iters: 5, launches: 5,
		pattern: spec.PatRandLine, footprintWords: 1 << 15,
		kernelLoads: 3, kernelALU: 3,
		depth: 17, calleeSaved: []int{3, 2, 2, 2, 2}, funcALU: 2, funcLoadEvery: 5,
		paperDepth: 17, paperCPKI: 47.11, factor: "L1D bandwidth contention",
	})
}
