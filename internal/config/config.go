// Package config provides the simulated GPU configurations the paper
// evaluates (§V-D): the V100 baseline, the Ampere RTX 3070 variant
// (Fig. 18), and the idealised comparison points — Idealized Virtual
// Warps (Zorua-style unlimited resources), 10MB L1, ALL-HIT, the static
// wavefront limiter, and L1 port scaling (Fig. 17).
//
// The model is scaled to a fraction of the real die (default 8 SMs)
// with L2/DRAM bandwidth scaled proportionally, so whole-suite
// experiments run in seconds; speedups are relative, so the scale
// cancels out of every figure.
package config

import (
	"fmt"
	"strings"

	"carsgo/internal/cars"
	"carsgo/internal/mem"
	"carsgo/internal/sim"
)

// DefaultSMs is the simulated SM count (a slice of the 80-SM V100).
const DefaultSMs = 8

// V100 returns the baseline configuration (§V-D Baseline).
func V100() sim.Config {
	n := DefaultSMs
	return sim.Config{
		Name: "V100",
		Machine: cars.Machine{
			NumSMs:          n,
			MaxWarpsPerSM:   64,
			MaxBlocksPerSM:  32,
			MaxThreadsPerSM: 2048,
			RegFileSlots:    2048, // 256KB / 128B
			RegGranularity:  8,
			SharedMemBytes:  96 * 1024,
		},
		SchedulersPerSM: 4,
		L1D: mem.L1Config{
			Cache:      mem.CacheConfig{Bytes: 128 * 1024, Assoc: 8, LineBytes: 128, SectorBytes: 32},
			HitLatency: 28,
			MSHRs:      48,
		},
		L1DSectorsPerCycle: 4,
		LSUQueueCap:        16,
		L1I:                mem.CacheConfig{Bytes: 128 * 1024, Assoc: 8, LineBytes: 128, SectorBytes: 32},
		ALULat:             4,
		SFULat:             16,
		SmemLat:            24,
		Mem: mem.SystemConfig{
			L2:                  mem.CacheConfig{Bytes: 768 * 1024, Assoc: 16, LineBytes: 128, SectorBytes: 32},
			L2Latency:           190,
			L2SectorsPerCycle:   1.6 * float64(n),
			DRAMLatency:         220,
			DRAMSectorsPerCycle: 0.7 * float64(n),
		},
		GlobalMemWords: 24 << 20, // 96 MB
		CARSPolicy:     cars.AdaptivePolicy(),
		TimelineWindow: 0,
	}
}

// RTX3070 returns the Ampere configuration for Fig. 18: the same model
// with Ampere-class occupancy limits — fewer warps and threads per SM,
// a combined 128KB L1/shared, and a smaller register file share per
// warp slot, which shifts CARS' watermark choices exactly as the paper
// observes for MST (Low instead of High).
func RTX3070() sim.Config {
	c := V100()
	c.Name = "RTX3070"
	c.MaxWarpsPerSM = 48
	c.MaxThreadsPerSM = 1536
	c.MaxBlocksPerSM = 16
	c.SharedMemBytes = 100 * 1024
	c.RegFileSlots = 2048
	c.L1D.Cache.Bytes = 96 * 1024
	c.L1I.Bytes = 128 * 1024
	c.Mem.L2.Bytes = 512 * 1024
	return c
}

// WithCARS enables CARS (adaptive) on a configuration.
func WithCARS(c sim.Config) sim.Config {
	c.Name += "+CARS"
	c.CARSEnabled = true
	c.CARSIssueExtra = 1
	return c
}

// WithRegisterWindows enables the register-window ablation: CARS'
// machinery with fixed-size frames (§VII's classic alternative), so the
// cost of window waste is directly measurable against exact-FRU CARS.
func WithRegisterWindows(c sim.Config) sim.Config {
	c = WithCARS(c)
	c.Name = strings.TrimSuffix(c.Name, "+CARS") + "+RegWindows"
	c.WindowedStacks = true
	return c
}

// WithSharedSpill compiles workloads with the CRAT-like shared-memory
// spill ABI (§VII): spill traffic leaves the L1D entirely, but the
// per-warp spill frames consume shared memory and therefore occupancy —
// the capacity-only tradeoff CARS is designed to avoid.
func WithSharedSpill(c sim.Config) sim.Config {
	c.Name += "+SmemSpill"
	c.SharedSpillABI = true
	return c
}

// WithRFCache layers the RF-cache backend over the shared-spill ABI:
// a per-thread register window of `words` spill slots absorbs the
// hottest (stack-top) spill traffic at register cost.
func WithRFCache(c sim.Config, words int) sim.Config {
	if !c.SharedSpillABI {
		c = WithSharedSpill(c)
	}
	c.Name += fmt.Sprintf("+RFC%d", words)
	c.RFCacheWindow = words
	return c
}

// WithCARSPolicy enables CARS with a fixed allocation mechanism
// (the per-mechanism study of Fig. 14).
func WithCARSPolicy(c sim.Config, p cars.Policy) sim.Config {
	c = WithCARS(c)
	c.CARSPolicy = p
	return c
}

// IdealizedVirtualWarps models the idealised Zorua configuration: an
// unlimited number of registers, shared memory, and thread-block slots.
func IdealizedVirtualWarps(c sim.Config) sim.Config {
	c.Name = "IdealVW"
	c.UnlimitedRegs = true
	c.UnlimitedSmem = true
	c.UnlimitedBlocks = true
	return c
}

// TenMBL1 grows each SM's L1D to 10MB (§V-D), eliminating capacity
// misses for most workloads.
func TenMBL1(c sim.Config) sim.Config {
	c.Name = "10MB-L1"
	c.L1D.Cache.Bytes = 10 * 1024 * 1024
	c.L1D.MSHRs = 256
	return c
}

// AllHit makes every spill/fill access hit in the L1D without
// traversing the cache, still paying hit latency and port bandwidth
// (§VI-A2's ALL-HIT study).
func AllHit(c sim.Config) sim.Config {
	c.Name = "ALL-HIT"
	c.L1D.AllHitSpills = true
	return c
}

// SWL applies the static wavefront limiter at the given warp count.
// Best-SWL sweeps {1,2,3,4,8,16} and keeps the best (§V-D).
func SWL(c sim.Config, warps int) sim.Config {
	c.Name = "SWL"
	c.SWLLimit = warps
	return c
}

// BestSWLCounts is the warp-limit sweep the paper uses.
var BestSWLCounts = []int{1, 2, 3, 4, 8, 16}

// ScaleL1Ports multiplies the L1D port bandwidth (Fig. 17's 2×/4×/8×).
func ScaleL1Ports(c sim.Config, factor int) sim.Config {
	c.L1DSectorsPerCycle *= factor
	return c
}

// WithTimeline enables bandwidth-timeline sampling (Fig. 11).
func WithTimeline(c sim.Config, window int64) sim.Config {
	c.TimelineWindow = window
	return c
}
