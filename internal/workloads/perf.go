package workloads

import "carsgo/internal/spec"

// Perf-registry workloads: occupancy-stress cases for the static
// cost/occupancy differential (san.PerfDiffWorkloads). They are not
// part of the Table I corpus — their whole point is to push the CARS
// ladder into regimes the paper's applications avoid, so the watermark
// advisor's choices can be validated against measured cycles.

// PERF_DeepCall is the occupancy cliff: a 16-deep call chain whose
// High watermark demands so many register-stack slots that a High
// allocation admits only a handful of warps per SM — but the chain is
// entered on a single loop iteration out of 256, so its state is
// almost never live. The kernel is latency-bound on a coalesced stream of
// DRAM misses (one dependent line in flight per warp), the regime
// where cycles scale with resident warps. The advisor must steer away
// from High here: Low keeps 4× the warps resident, and the occasional
// trap spills it pays for are cheap L1 traffic next to the 400-cycle
// stream misses the extra warps hide.
var deepCall = func() *Workload {
	w := chainParams{
		name:  "PERF_DeepCall",
		suite: "perf",

		grid:     128,
		block:    64,
		iters:    256,
		launches: 1,

		pattern:        spec.PatStream,
		footprintWords: 1 << 20,

		kernelLoads: 1,
		kernelALU:   2,

		depth:       16,
		callEvery:   256,
		calleeSaved: []int{12},
		funcALU:     3,
	}.workload()
	w.PerfExpect.AvoidHigh = true
	return registerPerf(w)
}()

// PERF_ShallowCall is the counterweight: a two-level chain whose High
// watermark is small enough that every ladder level reaches the same
// occupancy, so the trap-free bonus must tip the advisor to High.
var shallowCall = registerPerf(chainParams{
	name:  "PERF_ShallowCall",
	suite: "perf",

	grid:     64,
	block:    64,
	iters:    4,
	launches: 1,

	pattern:        spec.PatStream,
	footprintWords: 1 << 12,

	kernelLoads: 1,
	kernelALU:   2,

	depth:       2,
	calleeSaved: []int{3},
	funcALU:     4,
}.workload())
