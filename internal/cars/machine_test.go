package cars_test

import (
	"testing"

	"carsgo/internal/cars"
	"carsgo/internal/isa"
)

// tiny is a small SM: 16 warp slots, 4 block slots, 512 threads, a
// 512-slot register file allocated in 8-slot granules, 16KB shared.
func tiny() cars.Machine {
	return cars.Machine{
		NumSMs:          2,
		MaxWarpsPerSM:   16,
		MaxBlocksPerSM:  4,
		MaxThreadsPerSM: 512,
		RegFileSlots:    512,
		RegGranularity:  8,
		SharedMemBytes:  16 * 1024,
	}
}

func TestOccupancy(t *testing.T) {
	unlimited := func(regs, smem, blocks bool) cars.Machine {
		m := tiny()
		m.UnlimitedRegs, m.UnlimitedSmem, m.UnlimitedBlocks = regs, smem, blocks
		return m
	}
	cases := []struct {
		name      string
		m         cars.Machine
		shape     cars.Shape
		regs      int
		partial   bool
		want      cars.Occupancy
		otherWant int // MaxWarpsOther
		limiter   string
	}{
		{
			// 512 threads / 128 = 4 blocks × 4 warps = every warp slot.
			name: "threads", m: tiny(), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 16, Blocks: 4, Warps: 16, ResidentWarps: 16},
			otherWant: 16, limiter: "threads",
		},
		{
			name: "block slots", m: tiny(), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 32}},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 16, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 64, Blocks: 4, Warps: 4, ResidentWarps: 4},
			otherWant: 4, limiter: "block slots",
		},
		{
			// 16KB / 8KB = 2 blocks × 2 warps.
			name: "shared memory", m: tiny(), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 64}, SharedBytes: 8 * 1024},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 8, BlocksBySlots: 4, BlocksBySmem: 2,
				BlocksByRegs: 32, Blocks: 2, Warps: 4, ResidentWarps: 4},
			otherWant: 4, limiter: "shared memory",
		},
		{
			// The shared-spill frame (128B × 64 threads) is charged to
			// occupancy, but MaxWarpsOther sees only the explicit bytes.
			name: "spill frame", m: tiny(), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 64}, SpillPerThread: 128},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 8, BlocksBySlots: 4, BlocksBySmem: 2,
				BlocksByRegs: 32, Blocks: 2, Warps: 4, ResidentWarps: 4},
			otherWant: 8, limiter: "shared memory",
		},
		{
			// A fat allocation: 512 / (64 × 4) = 2 blocks.
			name: "registers", m: tiny(), regs: 64,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}},
			want: cars.Occupancy{RegsPerWarp: 64, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 2, Blocks: 2, Warps: 8, ResidentWarps: 8},
			otherWant: 16, limiter: "registers",
		},
		{
			// A warp can at most own the file.
			name: "register-file clamp", m: tiny(), regs: 1000,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 32}},
			want: cars.Occupancy{RegsPerWarp: 512, BlocksByThreads: 16, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 1, Blocks: 1, Warps: 1, ResidentWarps: 1},
			otherWant: 4, limiter: "registers",
		},
		{
			// No whole block fits, but an empty CARS SM admits one with
			// its other warps register-deactivated.
			name: "cars partial admission", m: tiny(), regs: 200, partial: true,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}},
			want: cars.Occupancy{RegsPerWarp: 200, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 0, Blocks: 1, Warps: 4, ResidentWarps: 4, Partial: true},
			otherWant: 16, limiter: "registers",
		},
		{
			name: "no partial admission without cars", m: tiny(), regs: 200,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}},
			want: cars.Occupancy{RegsPerWarp: 200, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 0, Blocks: 0, Warps: 0, ResidentWarps: 0},
			otherWant: 16, limiter: "registers",
		},
		{
			// A block that can never fit shared memory admits nothing,
			// partial admission included.
			name: "no fit", m: tiny(), regs: 200, partial: true,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}, SharedBytes: 32 * 1024},
			want: cars.Occupancy{RegsPerWarp: 200, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: 0,
				BlocksByRegs: 0, Blocks: 0, Warps: 0, ResidentWarps: 0},
			otherWant: 0, limiter: "registers",
		},
		{
			// The grid spreads round-robin: 1 block over 2 SMs puts at
			// most one block on any SM.
			name: "grid spread", m: tiny(), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 1, Block: 64}},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 8, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 32, Blocks: 4, Warps: 8, ResidentWarps: 2},
			otherWant: 2, limiter: "block slots",
		},
		{
			// 16 warp slots × 2048: registers stop limiting.
			name: "unlimited regs", m: unlimited(true, false, false), regs: 200,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 128}},
			want: cars.Occupancy{RegsPerWarp: 200, BlocksByThreads: 4, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 40, Blocks: 4, Warps: 16, ResidentWarps: 16},
			otherWant: 16, limiter: "threads",
		},
		{
			name: "unlimited smem", m: unlimited(false, true, false), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 64}, SharedBytes: 32 * 1024},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 8, BlocksBySlots: 4, BlocksBySmem: -1,
				BlocksByRegs: 32, Blocks: 4, Warps: 8, ResidentWarps: 8},
			otherWant: 8, limiter: "block slots",
		},
		{
			name: "unlimited blocks", m: unlimited(false, false, true), regs: 8,
			shape: cars.Shape{Dim: isa.Dim3{Grid: 100, Block: 32}},
			want: cars.Occupancy{RegsPerWarp: 8, BlocksByThreads: 16, BlocksBySlots: 1 << 20, BlocksBySmem: -1,
				BlocksByRegs: 64, Blocks: 16, Warps: 16, ResidentWarps: 16},
			otherWant: 16, limiter: "threads",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.m.Occupancy(tc.shape, tc.regs, tc.partial)
			if got != tc.want {
				t.Errorf("Occupancy = %+v\n want %+v", got, tc.want)
			}
			if l := got.Limiter(); l != tc.limiter {
				t.Errorf("Limiter = %q, want %q", l, tc.limiter)
			}
			if w := tc.m.MaxWarpsOther(tc.shape); w != tc.otherWant {
				t.Errorf("MaxWarpsOther = %d, want %d", w, tc.otherWant)
			}
		})
	}
}

func TestRoundRegsAndRegFileSize(t *testing.T) {
	m := tiny()
	for in, want := range map[int]int{0: 0, 1: 8, 8: 8, 9: 16, 74: 80} {
		if got := m.RoundRegs(in); got != want {
			t.Errorf("RoundRegs(%d) = %d, want %d", in, got, want)
		}
	}
	m.RegGranularity = 1
	if got := m.RoundRegs(9); got != 9 {
		t.Errorf("granularity 1: RoundRegs(9) = %d", got)
	}
	if got := m.RegFileSize(); got != 512 {
		t.Errorf("RegFileSize = %d, want 512", got)
	}
	m.UnlimitedRegs = true
	if got := m.RegFileSize(); got != 16*512*4 {
		t.Errorf("unlimited RegFileSize = %d, want %d", got, 16*512*4)
	}
}
