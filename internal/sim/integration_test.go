package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/mem"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
)

// barrierModule: each thread stores tid+1 to shared memory, barriers,
// then reads its neighbour's slot — wrong answers appear if the barrier
// does not actually separate the phases.
func barrierModule(block int) *kir.Module {
	m := &kir.Module{Name: "bar"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		IMad(17, 9, 10, 8).
		ShlI(12, 17, 2).
		IAdd(19, 4, 12).
		// shared[tid] = tid + 1
		ShlI(13, 8, 2).
		IAddI(14, 8, 1).
		StS(13, 0, 14).
		Bar().
		// read neighbour (tid+1) mod block
		IAddI(15, 8, 1).
		SetPI(0, isa.CmpGE, 15, int32(block)).
		If(0, func(b *kir.Builder) { b.MovI(15, 0) }, nil).
		ShlI(15, 15, 2).
		LdS(16, 15, 0).
		StG(19, 0, 16).
		Exit()
	m.AddFunc(k.MustBuild())
	return m
}

func TestBarrierSynchronises(t *testing.T) {
	const grid, block = 6, 128
	prog, err := abi.Link(abi.Baseline, barrierModule(block))
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	out := gpu.Alloc(grid * block)
	st, err := gpu.Run(isa.Launch{
		Kernel: "main", Dim: isa.Dim3{Grid: grid, Block: block},
		SharedBytes: block * 4, Params: []uint32{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned: warps park at the barrier and the last arrival releases
	// them in the same cycle.
	if st.Cycles != 852 {
		t.Errorf("cycles = %d, want 852", st.Cycles)
	}
	for g := 0; g < grid; g++ {
		for tid := 0; tid < block; tid++ {
			want := uint32((tid+1)%block) + 1
			got := gpu.Global()[int(out/4)+g*block+tid]
			if got != want {
				t.Fatalf("block %d tid %d: got %d, want %d", g, tid, got, want)
			}
		}
	}
}

func TestSWLLimitsConcurrency(t *testing.T) {
	w := barrierModule(64)
	prog, err := abi.Link(abi.Baseline, w)
	if err != nil {
		t.Fatal(err)
	}
	run := func(limit int) int64 {
		cfg := config.V100()
		cfg.SWLLimit = limit
		gpu, err := sim.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		out := gpu.Alloc(64 * 64)
		st, err := gpu.Run(isa.Launch{
			Kernel: "main", Dim: isa.Dim3{Grid: 64, Block: 64},
			SharedBytes: 64 * 4, Params: []uint32{out},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	limited := run(1)
	free := run(0)
	if limited <= free {
		t.Errorf("SWL(1) %d cycles not slower than unlimited %d", limited, free)
	}
	// Pinned: under SWL(1) each barrier hands the limiter's slot to a
	// sibling (swlActivateSibling) and each EXIT re-applies the limit.
	if limited != 1005 || free != 867 {
		t.Errorf("cycles SWL(1) %d, unlimited %d; want 1005, 867", limited, free)
	}
}

// ctxSwitchModule engineers the §IV-B case: a block whose High-watermark
// register demand exceeds the SM register file, with barriers, so CARS
// must context switch to make progress.
func ctxSwitchModule() *kir.Module {
	m := &kir.Module{Name: "ctx"}
	f := kir.NewFunc("bigframe").SetCalleeSaved(100)
	f.Mov(16, 4)
	for k := 1; k < 100; k++ {
		f.IAddI(uint8(16+k), uint8(16+k-1), 1)
	}
	f.IAdd(4, 4, 115).Ret()
	m.AddFunc(f.MustBuild())

	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		IMad(17, 9, 10, 8).
		ShlI(12, 17, 2).
		IAdd(19, 4, 12).
		MovI(16, 0)
	// Inflate the kernel base so High cannot host every warp.
	for r := 0; r < 80; r++ {
		k.IAddI(uint8(30+r), 17, int32(r))
	}
	k.ForN(20, 21, 3, func(b *kir.Builder) {
		b.Mov(4, 17)
		b.Call("bigframe")
		b.IAdd(16, 16, 4)
		b.Bar()
	})
	k.StG(19, 0, 16).Exit()
	m.AddFunc(k.MustBuild())
	return m
}

func TestContextSwitchPath(t *testing.T) {
	prog, err := abi.Link(abi.CARS, ctxSwitchModule())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.WithCARS(config.V100())
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	const grid, block = 8, 512
	out := gpu.Alloc(grid * block)
	st, err := gpu.Run(isa.Launch{
		Kernel: "main", Dim: isa.Dim3{Grid: grid, Block: block},
		Params: []uint32{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ContextSwitches == 0 {
		t.Error("engineered kernel performed no context switches")
	}
	// Pinned: the switched-out warp parks on its barrier, its spill
	// trap and its missing registers at once, and unparks only when the
	// last of them clears.
	if st.Cycles != 64884 || st.ContextSwitches != 168 || st.CtxSwitchSlots != 72576 {
		t.Errorf("cycles %d, context switches %d, switched slots %d; want 64884, 168, 72576",
			st.Cycles, st.ContextSwitches, st.CtxSwitchSlots)
	}
	// Functional correctness through the switch path: compare against
	// the baseline ABI.
	bprog, err := abi.Link(abi.Baseline, ctxSwitchModule())
	if err != nil {
		t.Fatal(err)
	}
	bgpu, err := sim.New(config.V100(), bprog)
	if err != nil {
		t.Fatal(err)
	}
	bout := bgpu.Alloc(grid * block)
	if _, err := bgpu.Run(isa.Launch{
		Kernel: "main", Dim: isa.Dim3{Grid: grid, Block: block},
		Params: []uint32{bout},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < grid*block; i++ {
		if gpu.Global()[int(out/4)+i] != bgpu.Global()[int(bout/4)+i] {
			t.Fatalf("context-switched output differs at %d", i)
		}
	}
}

// TestDivergentIndirectError pins down the documented limitation:
// lane-divergent indirect targets are rejected loudly — as a
// structured ExecError naming the kernel, warp, and PC — not silently
// serialised.
func TestDivergentIndirectError(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	// Target index = laneid & 1: divergent within the warp.
	k.S2R(8, isa.SrLaneID).
		AndI(8, 8, 1).
		MovFuncIdx(9, "va").
		IAdd(9, 9, 8). // va and vb are adjacent in link order
		CallIndirect(9, "va", "vb").
		Exit()
	m.AddFunc(k.MustBuild())
	va := kir.NewFunc("va")
	va.IAddI(4, 4, 1).Ret()
	m.AddFunc(va.MustBuild())
	vb := kir.NewFunc("vb")
	vb.IAddI(4, 4, 2).Ret()
	m.AddFunc(vb.MustBuild())

	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}})
	if err == nil {
		t.Fatal("divergent indirect call did not error")
	}
	var ee *sim.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("divergent indirect call returned %T (%v), want *sim.ExecError", err, err)
	}
	if ee.Kernel != "main" {
		t.Errorf("ExecError.Kernel = %q, want main", ee.Kernel)
	}
	if ee.Func != "main" || ee.PC < 0 {
		t.Errorf("ExecError does not locate the fault: func %q pc %d", ee.Func, ee.PC)
	}
}

// TestInvalidIndirectTargetError checks the other indirect-call fault:
// a run-time function index outside the program.
func TestInvalidIndirectTargetError(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.MovI(9, 1000). // far beyond the linked function count
				CallIndirect(9, "va").
				Exit()
	m.AddFunc(k.MustBuild())
	va := kir.NewFunc("va")
	va.IAddI(4, 4, 1).Ret()
	m.AddFunc(va.MustBuild())

	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}})
	var ee *sim.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("invalid indirect target returned %T (%v), want *sim.ExecError", err, err)
	}
	if ee.Kernel != "main" || ee.Warp != 0 {
		t.Errorf("ExecError = %+v, want kernel main warp 0", ee)
	}
}

func TestUnlimitedRegsLiftOccupancy(t *testing.T) {
	// A register-hungry kernel fits more blocks under IdealVW.
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID)
	for r := 0; r < 200; r++ {
		k.IAddI(uint8(10+r), 8, int32(r))
	}
	k.ForN(4, 5, 50, func(b *kir.Builder) {
		b.IMad(210, 210, 8, 8)
	})
	k.Exit()
	m.AddFunc(k.MustBuild())
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg sim.Config) int64 {
		gpu, err := sim.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 128, Block: 256}})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	base := run(config.V100())
	ideal := run(config.IdealizedVirtualWarps(config.V100()))
	if ideal >= base {
		t.Errorf("IdealVW (%d cycles) not faster than reg-limited baseline (%d)", ideal, base)
	}
	// Pinned: the baseline re-admits a block into the slots of each one
	// that retires.
	if base != 20500 || ideal != 16086 {
		t.Errorf("cycles baseline %d, IdealVW %d; want 20500, 16086", base, ideal)
	}
}

// loadStats is the part of a launch's statistics the load tests pin.
func loadStats(st *stats.Kernel) string {
	return fmt.Sprintf("cycles=%d instr=%d l1d.miss=%d l1i.access=%d l1i.miss=%d l2.access=%d dram=%d resident=%d",
		st.Cycles, st.TotalInstructions(), st.L1D.Misses[mem.ClassGlobal],
		st.L1I.Accesses[mem.ClassInst], st.L1I.Misses[mem.ClassInst],
		st.L2.Accesses[mem.ClassGlobal], st.DRAMSectors, st.ResidentWarps)
}

// TestLoadsOutliveTheirWarps: odd blocks load and EXIT without waiting
// for the data, so their loads complete after the warp is gone, often
// once a block of the next wave holds the slot. Blocks past the first
// wave first run code no earlier block fetched, so the new occupant is
// likely waiting on an instruction fill when the old load lands; were
// the completion to wake it, it would refetch early and the L1I counts
// would move. Even blocks store the loaded value plus one.
func TestLoadsOutliveTheirWarps(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		IMad(17, 9, 10, 8).
		ShlI(12, 17, 2).
		IAdd(18, 4, 12). // &in[gtid]
		IAdd(19, 5, 12). // &out[gtid]
		LdG(20, 18, 0).
		SetPI(1, isa.CmpGE, 9, 64).
		If(1, func(b *kir.Builder) {
			for i := 0; i < 96; i++ {
				b.IAddI(uint8(22+i%8), 17, int32(i))
			}
		}, nil).
		AndI(11, 9, 1).
		SetPI(0, isa.CmpEQ, 11, 0).
		If(0, func(b *kir.Builder) { b.IAddI(21, 20, 1).StG(19, 0, 21) }, nil).
		Exit()
	m.AddFunc(k.MustBuild())
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// 8 blocks of 8 warps fill an SM's 64 slots: 192 blocks are three
	// waves.
	const grid, block = 192, 256
	in, out := gpu.Alloc(grid*block), gpu.Alloc(grid*block)
	for i := 0; i < grid*block; i++ {
		gpu.Global()[int(in/4)+i] = uint32(7 * i)
	}
	st, err := gpu.Run(isa.Launch{
		Kernel: "main", Dim: isa.Dim3{Grid: grid, Block: block},
		Params: []uint32{in, out},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < grid*block; i++ {
		want := uint32(0)
		if (i/block)%2 == 0 {
			want = uint32(7*i) + 1
		}
		if got := gpu.Global()[int(out/4)+i]; got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if got, want := loadStats(st), "cycles=5530 instr=122880 l1d.miss=9208 l1i.access=130589 l1i.miss=7709 l2.access=9208 dram=9208 resident=64"; got != want {
		t.Errorf("stats %s\n want %s", got, want)
	}
}

// TestMSHRExhaustion: every lane of a load touches its own 128B line,
// so one warp-load needs 32 MSHRs. Two warps of two loads each ask an
// SM's L1 for 128 lines with 48 MSHRs: the LSU head waits for an MSHR
// while both warps wait on the scoreboard, leaving the SM nothing to
// issue.
func TestMSHRExhaustion(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		IMad(17, 9, 10, 8).
		ShlI(12, 17, 7).
		IAdd(18, 4, 12). // &in[32*gtid]: one line per lane
		LdG(20, 18, 0).
		LdG(21, 18, 64).
		IAdd(22, 20, 21).
		ShlI(13, 17, 2).
		IAdd(19, 5, 13).
		StG(19, 0, 22).
		Exit()
	m.AddFunc(k.MustBuild())
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.V100()
	if cfg.L1D.MSHRs != 48 {
		t.Fatalf("V100 has %d L1 MSHRs; the test is sized for 48", cfg.L1D.MSHRs)
	}
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	const grid, block = 8, 64 // one block per SM
	in, out := gpu.Alloc(32*grid*block), gpu.Alloc(grid*block)
	for i := 0; i < 32*grid*block; i++ {
		gpu.Global()[int(in/4)+i] = uint32(i)
	}
	st, err := gpu.Run(isa.Launch{
		Kernel: "main", Dim: isa.Dim3{Grid: grid, Block: block},
		Params: []uint32{in, out},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < grid*block; i++ {
		if got, want := gpu.Global()[int(out/4)+i], uint32(32*i)+uint32(32*i+16); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if got, want := loadStats(st), "cycles=1678 instr=224 l1d.miss=1088 l1i.access=256 l1i.miss=32 l2.access=1088 dram=1092 resident=2"; got != want {
		t.Errorf("stats %s\n want %s", got, want)
	}
}

func TestSpillTrafficClassification(t *testing.T) {
	// Explicit (non-ABI) local traffic lands in ClassLocalOther.
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	k.SetExtraLocalBytes(8)
	k.S2R(8, isa.SrTID).
		StL(1, 0, 8).
		LdL(9, 1, 0).
		Exit()
	m.AddFunc(k.MustBuild())
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 2, Block: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if st.L1D.Accesses[mem.ClassLocalOther] == 0 {
		t.Error("explicit locals not classified as other-local")
	}
	if st.L1D.Accesses[mem.ClassLocalSpill] != 0 {
		t.Error("explicit locals misclassified as spills")
	}
}
