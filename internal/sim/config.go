// Package sim is the cycle-level GPU model: SM cores with greedy-then-
// oldest warp schedulers, a register scoreboard, SIMT reconvergence,
// an LSU with sector-level L1D bandwidth, instruction caches, barriers,
// and a thread-block scheduler with occupancy limits — plus the CARS
// register-stack runtime (issue-stage free-register checks, traps,
// stalled-warp list, warp-status-check releases and barrier context
// switches, §IV).
//
// The simulator is also functional: every instruction executes on real
// 32-lane register values, so workloads compute verifiable results and
// CARS' renaming can be checked for semantic transparency against the
// baseline ABI.
package sim

import (
	"carsgo/internal/cars"
	"carsgo/internal/mem"
)

// Config parameterises one simulated GPU.
type Config struct {
	Name string

	// Machine holds the occupancy limits: core geometry, register file,
	// shared memory and the Idealized Virtual Warps switches.
	cars.Machine

	SchedulersPerSM int

	// L1D cache and port bandwidth.
	L1D                mem.L1Config
	L1DSectorsPerCycle int
	LSUQueueCap        int

	// L1I instruction cache.
	L1I mem.CacheConfig

	// Shared memory and execution latencies (cycles).
	ALULat  int64
	SFULat  int64
	SmemLat int64

	// Memory system (L2 + DRAM), shared across SMs.
	Mem            mem.SystemConfig
	GlobalMemWords int

	// Static wavefront limiter (§V-D): >0 caps the active warps per SM.
	SWLLimit int

	// CARS.
	CARSEnabled bool
	CARSPolicy  cars.Policy
	// CARSIssueExtra adds the paper's extra issue/operand-collector
	// pipeline cycle to every result latency (§IV-C worst case).
	CARSIssueExtra int64

	// SharedSpillABI compiles workloads with the CRAT-like shared-memory
	// spill ABI (§VII comparator): spills bypass the L1D but each warp's
	// spill frame is charged against shared memory, costing occupancy.
	// Mutually exclusive with CARSEnabled.
	SharedSpillABI bool

	// RFCacheWindow fronts the shared-spill frames with a per-thread
	// register-file cache of this many words (the compiler-assisted
	// RF-cache backend of the spill-policy lattice): a spill access
	// whose slot lies within the window below the frame top is served
	// from registers (ALU latency, no shared-memory transaction), and
	// admission charges the window as extra register slots per warp.
	// Requires SharedSpillABI; the shared-memory frame itself stays
	// allocated as the cache's backing store.
	RFCacheWindow int

	// WindowedStacks replaces CARS' exact-FRU frames with fixed-size
	// register windows (the §VII related-work alternative): every call
	// consumes a window sized for the program's largest FRU, wasting
	// the difference. Requires CARSEnabled.
	WindowedStacks bool

	// TimelineWindow is the bandwidth-sample window in cycles (Fig. 11);
	// 0 disables timeline collection.
	TimelineWindow int64

	// RFBanks models operand-collector register-file banking: reading
	// two or more operands whose physical slots share a bank serialises
	// the collector and adds one cycle per conflict to the result
	// latency. 0 or 1 disables the model (the paper's evaluation does
	// not isolate banking; this is an optional fidelity knob and the
	// basis of an ablation). Note that CARS renaming relocates
	// callee-saved registers into the stack region, changing their bank
	// assignment relative to the baseline.
	RFBanks int
}

// WarpsPerScheduler returns the warp slots owned by each scheduler.
func (c *Config) WarpsPerScheduler() int {
	return (c.MaxWarpsPerSM + c.SchedulersPerSM - 1) / c.SchedulersPerSM
}
