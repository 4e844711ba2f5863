package cars

// This file is the admission model: the occupancy arithmetic CARS sets
// its watermarks from (§III-B) and the thread-block scheduler admits
// by. The simulator calls it at launch and at block admission; vet
// calls it statically for every ladder level and spill backend, so the
// static occupancy rows and the measured residency share one
// definition.

import "carsgo/internal/isa"

// Machine is the occupancy limits known at kernel launch: the SM count
// and each SM's warp, block, thread, register and shared-memory limits.
type Machine struct {
	NumSMs          int `json:"numSMs"`
	MaxWarpsPerSM   int `json:"maxWarpsPerSM"`
	MaxBlocksPerSM  int `json:"maxBlocksPerSM"`
	MaxThreadsPerSM int `json:"maxThreadsPerSM"`

	// RegFileSlots is the register file capacity per SM in warp-register
	// slots (one slot = 32 lanes × 4B = 128B). V100: 256KB → 2048 slots.
	RegFileSlots int `json:"regFileSlots"`
	// RegGranularity rounds per-warp register allocations (slots).
	RegGranularity int `json:"regGranularity"`

	SharedMemBytes int `json:"sharedMemBytes"` // per SM

	// Idealized Virtual Warps (§V-D): the resource never limits
	// occupancy.
	UnlimitedRegs   bool `json:"unlimitedRegs,omitempty"`
	UnlimitedSmem   bool `json:"unlimitedSmem,omitempty"`
	UnlimitedBlocks bool `json:"unlimitedBlocks,omitempty"`
}

// Shape is the occupancy-relevant geometry of one kernel launch.
type Shape struct {
	Dim         isa.Dim3
	SharedBytes int // the launch's explicit shared memory per block
	// SpillPerThread is the shared-spill ABI's per-thread frame in bytes
	// (isa.Program.SmemSpillPerThread); zero under the other ABIs.
	SpillPerThread int
}

// BlockSmem is one block's shared-memory demand: the explicit bytes
// plus every thread's shared-spill frame.
func (s Shape) BlockSmem() int { return s.SharedBytes + s.SpillPerThread*s.Dim.Block }

// RoundRegs rounds a per-warp register demand up to the allocation
// granularity.
func (m Machine) RoundRegs(slots int) int {
	g := m.RegGranularity
	if g <= 1 {
		return slots
	}
	return (slots + g - 1) / g * g
}

// RegFileSize is the per-SM register capacity admission allocates
// from, in slots. Under UnlimitedRegs it is large enough that
// registers never limit occupancy.
func (m Machine) RegFileSize() int {
	if m.UnlimitedRegs {
		return m.MaxWarpsPerSM * 512 * 4
	}
	return m.RegFileSlots
}

// blockSlots is the thread-block slot limit.
func (m Machine) blockSlots() int {
	if m.UnlimitedBlocks {
		return 1 << 20
	}
	return m.MaxBlocksPerSM
}

// MaxWarpsOther is the per-SM warp bound from the non-register
// occupancy limits, the input to NewPlan's HighFree decision. It
// charges only the launch's explicit shared bytes, not the spill frame.
func (m Machine) MaxWarpsOther(s Shape) int {
	wpb := s.Dim.Warps()
	blocks := min(m.blockSlots(), m.MaxThreadsPerSM/s.Dim.Block, m.MaxWarpsPerSM/wpb, s.Dim.Grid)
	if s.SharedBytes > 0 && !m.UnlimitedSmem {
		blocks = min(blocks, m.SharedMemBytes/s.SharedBytes)
	}
	return blocks * wpb
}

// Occupancy is the per-SM residency admission reaches for one launch
// at one per-warp register demand: the block count each limit allows
// (§II's four factors), their minimum, and the peak residency the
// grid's spread over the SMs permits.
type Occupancy struct {
	RegsPerWarp     int `json:"regsPerWarp"`
	BlocksByThreads int `json:"blocksByThreads"`
	BlocksBySlots   int `json:"blocksBySlots"`
	BlocksBySmem    int `json:"blocksBySmem"` // -1: no shared memory used
	BlocksByRegs    int `json:"blocksByRegs"`
	// Blocks and Warps are the steady-state residency at full grid
	// pressure.
	Blocks int `json:"blocks"`
	Warps  int `json:"warps"`
	// ResidentWarps additionally caps Blocks by the grid's round-robin
	// spread, ceil(Grid/NumSMs): the peak of the launch's opening
	// admission wave.
	ResidentWarps int `json:"residentWarps"`
	// Partial marks the CARS single-block admission where some warps
	// start register-deactivated.
	Partial bool `json:"partial,omitempty"`
}

// Occupancy applies every limit block admission checks to a per-warp
// register demand, including the register-file clamp. partial enables
// the CARS rule that an empty SM admits one block as long as a single
// warp's registers fit.
func (m Machine) Occupancy(s Shape, regsPerWarp int, partial bool) (o Occupancy) {
	wpb := s.Dim.Warps()
	arena := m.RegFileSize()
	o.RegsPerWarp = min(regsPerWarp, arena) // a warp can at most own the file

	o.BlocksByThreads = m.MaxThreadsPerSM / s.Dim.Block
	o.BlocksBySlots = m.blockSlots()
	o.BlocksBySmem = -1
	if smem := s.BlockSmem(); smem > 0 && !m.UnlimitedSmem {
		o.BlocksBySmem = m.SharedMemBytes / smem
	}
	if o.RegsPerWarp*wpb > 0 {
		o.BlocksByRegs = arena / (o.RegsPerWarp * wpb)
	} else {
		o.BlocksByRegs = o.BlocksBySlots
	}
	byWarpSlots := m.MaxWarpsPerSM / wpb

	o.Blocks = min(o.BlocksByThreads, o.BlocksBySlots, o.BlocksByRegs, byWarpSlots)
	if o.BlocksBySmem >= 0 {
		o.Blocks = min(o.Blocks, o.BlocksBySmem)
	}
	if partial && o.BlocksByRegs == 0 && o.BlocksBySmem != 0 &&
		min(o.BlocksByThreads, o.BlocksBySlots, byWarpSlots) > 0 {
		// The rest of the block's warps start deactivated but occupy
		// warp slots and count as resident.
		o.Blocks = 1
		o.Partial = true
	}
	o.Warps = o.Blocks * wpb

	residentBlocks := o.Blocks
	if m.NumSMs > 0 {
		residentBlocks = min(residentBlocks, (s.Dim.Grid+m.NumSMs-1)/m.NumSMs)
	}
	o.ResidentWarps = residentBlocks * wpb
	return o
}

// Limiter names the binding constraint.
func (o Occupancy) Limiter() string {
	switch o.Blocks {
	case o.BlocksByRegs:
		return "registers"
	case o.BlocksByThreads:
		return "threads"
	case o.BlocksBySmem:
		return "shared memory"
	case o.BlocksBySlots:
		return "block slots"
	}
	if o.Partial {
		return "registers"
	}
	return "grid"
}
