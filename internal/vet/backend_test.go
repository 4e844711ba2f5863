package vet_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/san"
	"carsgo/internal/sim"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// chainModule builds k -> f0 -> f1 -> ... with the given callee-saved
// counts, the minimal spill-chain shape the backend-lattice tests need.
func chainModule(saved ...int) *kir.Module {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("k")
	k.MovI(4, 1)
	if len(saved) > 0 {
		k.Call("f0")
	}
	k.Exit()
	m.AddFunc(k.MustBuild())
	names := []string{"f0", "f1", "f2", "f3"}
	for i, c := range saved {
		b := kir.NewFunc(names[i]).SetCalleeSaved(c)
		b.Mov(16, 4)
		if i+1 < len(saved) {
			b.Call(names[i+1])
		}
		b.Ret()
		m.AddFunc(b.MustBuild())
	}
	return m
}

func analyzeChain(t *testing.T, mode abi.Mode, m *kir.Module) *callgraph.Analysis {
	t.Helper()
	prog, err := abi.Link(mode, m)
	if err != nil {
		t.Fatal(err)
	}
	an, err := callgraph.Analyze(prog, "k")
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestSpillDepthsChain(t *testing.T) {
	an := analyzeChain(t, abi.SharedSpill, chainModule(2, 3))
	depths := vet.SpillDepthsForTest(an)
	// Depth counts the walker's own frame plus every enclosing one:
	// k saves nothing, f0 sits 8 bytes deep, f1 another 12 below.
	want := map[string]int{"k": 0, "f0": 8, "f1": 20}
	for fi, n := range an.Nodes {
		if w, ok := want[n.Func.Name]; ok {
			if d := depths[fi]; d != w {
				t.Errorf("%s: depth %d, want %d", n.Func.Name, d, w)
			}
		}
	}
}

func TestSpillDepthsDiamondTakesWorstPath(t *testing.T) {
	// k calls a (1 reg) and b (5 regs); both call c (1 reg). c's worst
	// depth must run through b's deeper frame.
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("k")
	k.MovI(4, 1).Call("a").Call("b").Exit()
	m.AddFunc(k.MustBuild())
	a := kir.NewFunc("a").SetCalleeSaved(1)
	a.Mov(16, 4).Call("c").Ret()
	m.AddFunc(a.MustBuild())
	b := kir.NewFunc("b").SetCalleeSaved(5)
	b.Mov(16, 4).Call("c").Ret()
	m.AddFunc(b.MustBuild())
	c := kir.NewFunc("c").SetCalleeSaved(1)
	c.Mov(16, 4).Ret()
	m.AddFunc(c.MustBuild())

	an := analyzeChain(t, abi.SharedSpill, m)
	depths := vet.SpillDepthsForTest(an)
	for fi, n := range an.Nodes {
		if n.Func.Name == "c" {
			if d := depths[fi]; d != 24 { // 5*4 through b, plus c's own 4
				t.Fatalf("c: depth %d, want 24", d)
			}
		}
	}
}

func TestSpillDepthsRecursionUnbounded(t *testing.T) {
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("k")
	k.MovI(4, 1).Call("r").Exit()
	m.AddFunc(k.MustBuild())
	r := kir.NewFunc("r").SetCalleeSaved(2)
	r.Mov(16, 4).Call("r").Ret()
	m.AddFunc(r.MustBuild())

	an := analyzeChain(t, abi.CARS, m) // SharedSpill rejects recursion
	for fi, d := range vet.SpillDepthsForTest(an) {
		if d != -1 {
			t.Fatalf("func %d: cyclic graph must mark every depth unbounded, got %d", fi, d)
		}
	}
}

// TestResidualWindowMonotone holds the residual evaluator to the
// lattice's core soundness shape: widening the RF-cache window never
// increases the residual spill bound, the zero window reproduces the
// pure shared-spill traffic, and the full-depth window absorbs every
// spill byte.
func TestResidualWindowMonotone(t *testing.T) {
	prog, err := abi.Link(abi.SharedSpill, chainModule(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep := vet.Report(prog)
	kr := rep.Kernel("k")
	if kr == nil {
		t.Fatal("no kernel report for k")
	}
	if prog.SmemSpillPerThread != 24 {
		t.Fatalf("SmemSpillPerThread = %d, want 24", prog.SmemSpillPerThread)
	}
	full := prog.SmemSpillPerThread / 4

	base, baseTx, ok := kr.ResidAt(-1)
	if !ok {
		t.Fatal("no residual evaluator on the kernel report")
	}
	if !base.Finite() || base.Value == 0 {
		t.Fatalf("uncovered residual spill bound %s, want finite nonzero", base.Sym)
	}
	if zero, _, _ := kr.ResidAt(0); zero != base {
		t.Fatalf("zero window bound %s differs from the no-window bound %s", zero.Sym, base.Sym)
	}
	prevB, prevT := base, baseTx
	for w := 1; w <= full; w++ {
		sb, tx, _ := kr.ResidAt(w)
		if !sb.Finite() || !tx.Finite() {
			t.Fatalf("window %d: bounds must stay finite on a DAG", w)
		}
		if sb.Value > prevB.Value || tx.Value > prevT.Value {
			t.Fatalf("window %d: residual grew (%d > %d bytes or %d > %d txns)",
				w, sb.Value, prevB.Value, tx.Value, prevT.Value)
		}
		prevB, prevT = sb, tx
	}
	if final, _, _ := kr.ResidAt(full); final.Value != 0 {
		t.Fatalf("full window leaves residual spill %s, want 0", final.Sym)
	}
	if _, userOnly, _ := kr.ResidAt(full); userOnly.Value > baseTx.Value {
		t.Fatalf("full-window txn bound %s exceeds the uncovered bound %s", userOnly.Sym, baseTx.Sym)
	}
}

// testMachine is a small single-SM machine whose shared-memory capacity
// the admission tests dial per case.
func testMachine(smemBytes int) vet.MachineParams {
	return vet.MachineParams{Machine: cars.Machine{
		NumSMs:          1,
		MaxWarpsPerSM:   64,
		MaxBlocksPerSM:  32,
		MaxThreadsPerSM: 2048,
		RegFileSlots:    65536,
		RegGranularity:  8,
		SharedMemBytes:  smemBytes,
	}}
}

// TestSmemBackendAdmission pins the shared-spill backend's admission
// rule at its edges: the smem limit must mirror the simulator's
// "frames fit or the block waits" check exactly — at capacity one
// block runs, one byte short none does, and a capacity between limits
// admits partially.
func TestSmemBackendAdmission(t *testing.T) {
	// k -> f0 saving 4 registers: a 16-byte per-thread spill frame,
	// 1024 bytes per 64-thread block.
	prog, err := abi.Link(abi.SharedSpill, chainModule(4))
	if err != nil {
		t.Fatal(err)
	}
	if prog.SmemSpillPerThread != 16 {
		t.Fatalf("SmemSpillPerThread = %d, want 16", prog.SmemSpillPerThread)
	}
	shape := vet.LaunchShape{Kernel: "k", Grid: 8, Block: 64}
	const frameBytesPerBlock = 16 * 64

	cases := []struct {
		name          string
		smemBytes     int
		wantBySmem    int
		wantBlocks    int
		wantResident  int
		wantLimitedBy string
	}{
		{
			// Exactly one frame of capacity: the boundary block fits.
			name: "exactlyAtCapacity", smemBytes: frameBytesPerBlock,
			wantBySmem: 1, wantBlocks: 1, wantResident: 2, wantLimitedBy: "shared memory",
		},
		{
			// One byte short: no block is admissible. The static model
			// must report zero; the simulator rejects the launch with
			// sim.ErrNoFit.
			name: "oneByteShort", smemBytes: frameBytesPerBlock - 1,
			wantBySmem: 0, wantBlocks: 0, wantResident: 0, wantLimitedBy: "shared memory",
		},
		{
			// Room for three frames: partial admission — smem binds
			// below every other limit (threads/slots/warps allow 32).
			name: "partialAdmission", smemBytes: 3 * frameBytesPerBlock,
			wantBySmem: 3, wantBlocks: 3, wantResident: 6, wantLimitedBy: "shared memory",
		},
		{
			// Plenty of capacity: the thread limit binds at 32 blocks
			// and smem stops being the limiter; residency still caps at
			// the grid's 8 blocks on the single SM.
			name: "capacitySlack", smemBytes: 64 * frameBytesPerBlock,
			wantBySmem: 64, wantBlocks: 32, wantResident: 16, wantLimitedBy: "threads",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := vet.Report(prog)
			if err := vet.AnalyzePerf(rep, prog, testMachine(tc.smemBytes), []vet.LaunchShape{shape}); err != nil {
				t.Fatal(err)
			}
			kr := rep.Kernel("k")
			if kr == nil || kr.Perf == nil || len(kr.Perf.Backends) == 0 {
				t.Fatal("no backend lattice on the kernel report")
			}
			var smem *vet.BackendPerf
			for i := range kr.Perf.Backends {
				if kr.Perf.Backends[i].Backend == "smem" {
					smem = &kr.Perf.Backends[i]
				}
			}
			if smem == nil || len(smem.Levels) != 1 {
				t.Fatalf("smem backend must carry exactly one design point, got %+v", smem)
			}
			o := smem.Levels[0].LevelOccupancy
			if o.BlocksBySmem != tc.wantBySmem {
				t.Errorf("BlocksBySmem = %d, want %d", o.BlocksBySmem, tc.wantBySmem)
			}
			if o.Blocks != tc.wantBlocks {
				t.Errorf("Blocks = %d, want %d", o.Blocks, tc.wantBlocks)
			}
			if o.ResidentWarps != tc.wantResident {
				t.Errorf("ResidentWarps = %d, want %d", o.ResidentWarps, tc.wantResident)
			}
			if o.LimitedBy != tc.wantLimitedBy {
				t.Errorf("LimitedBy = %q, want %q", o.LimitedBy, tc.wantLimitedBy)
			}
		})
	}
}

// TestZeroSpillSharedSpillHasNoLattice: a call-free kernel links under
// SharedSpill without a spill segment; there is no backend trade to
// study, so the report must carry the base occupancy row and no
// backend columns.
func TestZeroSpillSharedSpillHasNoLattice(t *testing.T) {
	prog, err := abi.Link(abi.SharedSpill, chainModule())
	if err != nil {
		t.Fatal(err)
	}
	if prog.SmemSpillPerThread != 0 {
		t.Fatalf("SmemSpillPerThread = %d, want 0", prog.SmemSpillPerThread)
	}
	rep := vet.Report(prog)
	if err := vet.AnalyzePerf(rep, prog, testMachine(64<<10), []vet.LaunchShape{{Kernel: "k", Grid: 8, Block: 64}}); err != nil {
		t.Fatal(err)
	}
	kr := rep.Kernel("k")
	if kr == nil || kr.Perf == nil {
		t.Fatal("no perf report")
	}
	if len(kr.Perf.Occupancy) != 1 || kr.Perf.Occupancy[0].Level != "base" {
		t.Fatalf("occupancy = %+v, want the single base row", kr.Perf.Occupancy)
	}
	if o := kr.Perf.Occupancy[0]; o.BlocksBySmem != -1 {
		t.Fatalf("BlocksBySmem = %d, want -1 (no shared memory used)", o.BlocksBySmem)
	}
	if len(kr.Perf.Backends) != 0 {
		t.Fatalf("zero-spill program grew backend columns: %+v", kr.Perf.Backends)
	}
}

// TestBackendLatticeColumns pins the column structure AnalyzePerf
// attaches per mode: shared-spill programs carry the smem point plus
// the full rfcache window ladder (whose High absorbs everything), and
// CARS programs carry the cars column mirroring the occupancy ladder.
func TestBackendLatticeColumns(t *testing.T) {
	mod := chainModule(2, 4)

	prog, err := abi.Link(abi.SharedSpill, mod)
	if err != nil {
		t.Fatal(err)
	}
	rep := vet.Report(prog)
	m := testMachine(96 << 10)
	shape := vet.LaunchShape{Kernel: "k", Grid: 8, Block: 64}
	if err := vet.AnalyzePerf(rep, prog, m, []vet.LaunchShape{shape}); err != nil {
		t.Fatal(err)
	}
	kr := rep.Kernel("k")
	if n := len(kr.Perf.Backends); n != 2 {
		t.Fatalf("shared-spill lattice has %d columns, want smem+rfcache", n)
	}
	smem, rfc := kr.Perf.Backends[0], kr.Perf.Backends[1]
	if smem.Backend != "smem" || rfc.Backend != "rfcache" {
		t.Fatalf("columns = %s, %s; want smem, rfcache", smem.Backend, rfc.Backend)
	}
	if len(smem.Levels) != 1 || smem.Levels[0].Covered {
		t.Fatalf("smem column = %+v; want one uncovered point", smem.Levels)
	}
	if smem.Levels[0].SpillSmemBytes.Value == 0 {
		t.Fatal("smem point must pay the full spill traffic")
	}
	if len(rfc.Levels) < 2 {
		t.Fatalf("rfcache ladder %+v has fewer than two windows", rfc.Levels)
	}
	last := rfc.Levels[len(rfc.Levels)-1]
	if !last.Covered || last.SpillSmemBytes.Value != 0 {
		t.Fatalf("rfcache High %+v must cover every spill", last)
	}
	if rfc.Advice == nil || rfc.Advice.LevelIndex < 0 || rfc.Advice.LevelIndex >= len(rfc.Levels) {
		t.Fatalf("rfcache advice out of range: %+v", rfc.Advice)
	}

	// Same module under CARS: one cars column, one row per ladder level.
	cprog, err := abi.Link(abi.CARS, mod)
	if err != nil {
		t.Fatal(err)
	}
	crep := vet.Report(cprog)
	cm := m
	cm.CARS = true
	if err := vet.AnalyzePerf(crep, cprog, cm, []vet.LaunchShape{shape}); err != nil {
		t.Fatal(err)
	}
	ckr := crep.Kernel("k")
	if n := len(ckr.Perf.Backends); n != 1 {
		t.Fatalf("CARS lattice has %d columns, want just cars", n)
	}
	carsCol := ckr.Perf.Backends[0]
	if carsCol.Backend != "cars" {
		t.Fatalf("column = %s, want cars", carsCol.Backend)
	}
	if len(carsCol.Levels) != len(ckr.Perf.Occupancy) {
		t.Fatalf("cars column has %d rows, occupancy ladder has %d",
			len(carsCol.Levels), len(ckr.Perf.Occupancy))
	}
	high := carsCol.Levels[len(carsCol.Levels)-1]
	if !high.Covered {
		t.Fatal("CARS High must be covered (full stack, no trap)")
	}
	for _, bl := range carsCol.Levels {
		if bl.SpillSmemBytes.Value != 0 || bl.SpillSmemBytes.Unbounded {
			t.Fatalf("CARS level %s claims smem spill traffic %s", bl.Level, bl.SpillSmemBytes.Sym)
		}
	}
}

// TestAnalyzePerfReusesReportGraphs checks AnalyzePerf against its
// fallback: a report paired with its own program reuses the call
// graphs Report stashed, a report paired with an identical copy of the
// program analyses afresh, and both must come out identical — as
// values and as JSON.
func TestAnalyzePerfReusesReportGraphs(t *testing.T) {
	for _, name := range []string{"MST", "PTA", "FIB"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []abi.Mode{abi.Baseline, abi.CARS} {
			link := func() *isa.Program {
				prog, err := abi.Link(mode, w.Modules()...)
				if err != nil {
					t.Fatalf("%s [%s]: %v", name, mode, err)
				}
				return prog
			}
			own, other := link(), link()
			cfg := san.ConfigFor(mode)
			g, err := sim.New(cfg, own)
			if err != nil {
				t.Fatal(err)
			}
			launches, err := w.Setup(g)
			if err != nil {
				t.Fatal(err)
			}
			perf := func(rep *vet.ProgramReport, prog *isa.Program) *vet.ProgramReport {
				if err := vet.AnalyzePerf(rep, prog, san.MachineParamsFor(cfg), san.Shapes(launches)); err != nil {
					t.Fatalf("%s [%s]: %v", name, mode, err)
				}
				return rep
			}
			reused := perf(vet.Report(own), own)
			fresh := perf(vet.Report(other), own)
			if !reflect.DeepEqual(reused, perf(vet.Report(other), other)) {
				t.Errorf("%s [%s]: reports of identical programs differ", name, mode)
			}
			a, _ := json.Marshal(reused)
			b, _ := json.Marshal(fresh)
			if !bytes.Equal(a, b) {
				t.Errorf("%s [%s]: AnalyzePerf with the stashed call graphs differs from a fresh analysis", name, mode)
			}
		}
	}
}
