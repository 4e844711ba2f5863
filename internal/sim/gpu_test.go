package sim

import (
	"errors"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/mem"
)

func l1Cfg() mem.L1Config {
	return mem.L1Config{
		Cache:      mem.CacheConfig{Bytes: 32 * 1024, Assoc: 4, LineBytes: 128, SectorBytes: 32},
		HitLatency: 20,
		MSHRs:      16,
	}
}

func memCfg() mem.SystemConfig {
	return mem.SystemConfig{
		L2:                  mem.CacheConfig{Bytes: 128 * 1024, Assoc: 8, LineBytes: 128, SectorBytes: 32},
		L2Latency:           100,
		L2SectorsPerCycle:   4,
		DRAMLatency:         200,
		DRAMSectorsPerCycle: 2,
	}
}

func tinyConfig() Config {
	return Config{
		Name: "tiny",
		Machine: cars.Machine{
			NumSMs:          2,
			MaxWarpsPerSM:   16,
			MaxBlocksPerSM:  4,
			MaxThreadsPerSM: 512,
			RegFileSlots:    512,
			RegGranularity:  8,
			SharedMemBytes:  16 * 1024,
		},
		SchedulersPerSM:    2,
		L1D:                l1Cfg(),
		L1DSectorsPerCycle: 4,
		LSUQueueCap:        8,
		L1I:                l1Cfg().Cache,
		ALULat:             4,
		SFULat:             16,
		SmemLat:            24,
		Mem:                memCfg(),
		GlobalMemWords:     1 << 16,
	}
}

func tinyProgram(t *testing.T) *isa.Program {
	t.Helper()
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).MovI(9, 1).Exit()
	m.AddFunc(k.MustBuild())
	p, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMaxWarpsOtherLimits(t *testing.T) {
	g, err := New(tinyConfig(), tinyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	// The bound launch set-up hands cars.NewPlan, read through the
	// simulator's config; the kernel is register-light, so the launch
	// also reaches it.
	for _, c := range []struct {
		name string
		l    isa.Launch
		want int
	}{
		// 512 threads / 128 = 4 blocks × 4 warps = 16 warps, capped by
		// MaxWarpsPerSM.
		{"thread-limited", isa.Launch{Dim: isa.Dim3{Grid: 100, Block: 128}}, 16},
		// 4 block slots × 1 warp.
		{"block-limited", isa.Launch{Dim: isa.Dim3{Grid: 100, Block: 32}}, 4},
		// 16KB / 8KB = 2 blocks × 2 warps.
		{"smem-limited", isa.Launch{Dim: isa.Dim3{Grid: 100, Block: 64}, SharedBytes: 8 * 1024}, 4},
		// Grid smaller than capacity.
		{"grid-limited", isa.Launch{Dim: isa.Dim3{Grid: 1, Block: 64}}, 2},
	} {
		shape := cars.Shape{Dim: c.l.Dim, SharedBytes: c.l.SharedBytes}
		if got := g.Cfg.MaxWarpsOther(shape); got != c.want {
			t.Errorf("%s: MaxWarpsOther = %d, want %d", c.name, got, c.want)
		}
		c.l.Kernel = "main"
		st, err := g.Run(c.l)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.ResidentWarps != c.want {
			t.Errorf("%s: measured %d resident warps, want %d", c.name, st.ResidentWarps, c.want)
		}
	}
}

func TestOccupancyFor(t *testing.T) {
	g, err := New(tinyConfig(), tinyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	shape := func(l isa.Launch) cars.Shape {
		return cars.Shape{Dim: l.Dim, SharedBytes: l.SharedBytes, SpillPerThread: g.Prog.SmemSpillPerThread}
	}
	// tiny: 512 threads, 4 block slots, 512 reg slots, 16KB smem.
	// Block of 128 threads (4 warps) at an 8-slot allocation:
	// threads -> 4, slots -> 4, regs -> 512/(8*4) = 16.
	wide := isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 100, Block: 128}}
	o := g.Cfg.Occupancy(shape(wide), 8, false)
	if o.Blocks != 4 || o.Warps != 16 {
		t.Fatalf("occupancy: %+v", o)
	}
	if l := o.Limiter(); l != "registers" && l != "threads" && l != "block slots" {
		t.Fatalf("limiter: %s", l)
	}
	// A fat register allocation becomes the limiter.
	o = g.Cfg.Occupancy(shape(wide), 64, false)
	if o.BlocksByRegs != 2 || o.Blocks != 2 || o.Limiter() != "registers" {
		t.Fatalf("reg-limited occupancy: %+v (%s)", o, o.Limiter())
	}
	// Shared memory limiter.
	smem := isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 100, Block: 64}, SharedBytes: 8 * 1024}
	o = g.Cfg.Occupancy(shape(smem), 8, false)
	if o.BlocksBySmem != 2 || o.Blocks != 2 || o.Limiter() != "shared memory" {
		t.Fatalf("smem-limited occupancy: %+v (%s)", o, o.Limiter())
	}
	// Small grids cap the resident count, not the steady-state blocks.
	small := isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 64}}
	o = g.Cfg.Occupancy(shape(small), 8, false)
	if o.Blocks != 4 || o.ResidentWarps != 2 {
		t.Fatalf("grid-capped occupancy: %+v", o)
	}
	// At the allocation launch set-up makes, the model predicts the
	// simulator's measured residency.
	for _, l := range []isa.Launch{wide, smem, small} {
		st, err := g.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Cfg.Occupancy(shape(l), g.baseRegsPerWarp, false).ResidentWarps
		if st.ResidentWarps != want {
			t.Errorf("%+v: measured %d resident warps, model says %d", l.Dim, st.ResidentWarps, want)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	g, err := New(tinyConfig(), tinyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(isa.Launch{Kernel: "nope", Dim: isa.Dim3{Grid: 1, Block: 32}}); err == nil {
		t.Error("unknown kernel launched")
	}
	if _, err := g.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 0, Block: 32}}); err == nil {
		t.Error("zero grid launched")
	}
	if _, err := g.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 4096}}); err == nil {
		t.Error("oversized block launched")
	}
}

func TestLaunchNoFit(t *testing.T) {
	p := tinyProgram(t)
	g, err := New(tinyConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	// 16KB per SM: a block asking for one word more can never be
	// admitted, and launch validation says so instead of deadlocking.
	tooBig := isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}, SharedBytes: 16*1024 + 4}
	if _, err := g.Run(tooBig); !errors.Is(err, ErrNoFit) {
		t.Fatalf("oversized shared memory: err = %v, want ErrNoFit", err)
	}
	if _, err := g.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}, SharedBytes: 16 * 1024}); err != nil {
		t.Fatalf("block filling shared memory exactly: %v", err)
	}
	// The shared-spill frame counts: 32 threads × 1KB overflows alone.
	p.SmemSpillPerThread = 1024
	if _, err := g.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}}); !errors.Is(err, ErrNoFit) {
		t.Fatalf("oversized spill frame: err = %v, want ErrNoFit", err)
	}
	cfg := tinyConfig()
	cfg.UnlimitedSmem = true
	if g, err = New(cfg, tinyProgram(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(tooBig); err != nil {
		t.Fatalf("UnlimitedSmem rejected a launch: %v", err)
	}
}

func TestConfigProgramModeMismatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.CARSEnabled = true
	if _, err := New(cfg, tinyProgram(t)); err == nil {
		t.Error("CARS config accepted baseline program")
	}
}

// sim.New rejects a cache geometry the shift-and-mask index math
// cannot serve, naming the cache: a line that is not a power of two, or
// more than 8 sectors to a line (a line's sector masks are uint8).
func TestCacheGeometryValidated(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"L1D", func(cfg *Config) { cfg.L1D.Cache.LineBytes = 96 }},
		{"L1I", func(cfg *Config) { cfg.L1I.LineBytes = 96 }},
		{"L2", func(cfg *Config) { cfg.Mem.L2.LineBytes, cfg.Mem.L2.SectorBytes = 256, 16 }},
		{"L1D", func(cfg *Config) { cfg.L1D.Cache.LineBytes, cfg.L1D.Cache.SectorBytes = 256, 16 }},
	} {
		cfg := tinyConfig()
		c.edit(&cfg)
		_, err := New(cfg, tinyProgram(t))
		if err == nil || !strings.Contains(err.Error(), c.name+" geometry") {
			t.Errorf("%s %+v %+v %+v: New returned %v, want an error naming %s",
				c.name, cfg.L1D.Cache, cfg.L1I, cfg.Mem.L2, err, c.name)
		}
	}
	if _, err := New(tinyConfig(), tinyProgram(t)); err != nil {
		t.Fatalf("the valid geometry was rejected: %v", err)
	}
}

func TestRegisterLimitedBaselineRejected(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	for r := 0; r < 250; r++ {
		k.MovI(uint8(r), int32(r))
	}
	k.Exit()
	m.AddFunc(k.MustBuild())
	p, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	g, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// 256 regs x 16 warps = 4096 > 512 slots: launch must fail loudly.
	if _, err := g.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 512}}); err == nil {
		t.Error("impossible register demand accepted")
	}
}

func TestCodeBytesLayout(t *testing.T) {
	g, err := New(tinyConfig(), tinyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if g.CodeBytes() == 0 {
		t.Error("no code footprint")
	}
	// Function bases are 128B aligned.
	for _, base := range g.funcBase {
		if base%128 != 0 {
			t.Errorf("function base %d not line-aligned", base)
		}
	}
}

func TestLocalPhysAddrDisjoint(t *testing.T) {
	g, err := New(tinyConfig(), tinyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	// Different warps' local spaces never overlap; all live above the
	// global segment.
	end0 := g.localPhysAddr(0, localWordsPerWarp-1, 31)
	start1 := g.localPhysAddr(1, 0, 0)
	if end0 >= start1 {
		t.Errorf("warp local spaces overlap: %d >= %d", end0, start1)
	}
	if g.localPhysAddr(0, 0, 0) < uint64(g.Cfg.GlobalMemWords)*4 {
		t.Error("local space aliases global memory")
	}
	// Lanes of one word pack one 128B line.
	a := g.localPhysAddr(5, 7, 0)
	b := g.localPhysAddr(5, 7, 31)
	if b-a != 124 || a%128 != 0 {
		t.Errorf("lane packing wrong: %d..%d", a, b)
	}
}
