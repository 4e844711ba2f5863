package vet_test

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/opt"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// registryProgram is one Table I workload linked under one ABI mode.
type registryProgram struct {
	name string
	prog *isa.Program
}

// registryPrograms links every Table I workload under every ABI mode,
// skipping the recursive workloads the shared-spill ABI refuses.
func registryPrograms(tb testing.TB) []registryProgram {
	tb.Helper()
	var out []registryProgram
	for _, w := range workloads.All() {
		mods := w.Modules()
		for _, mode := range abi.Modes {
			prog, err := abi.Link(mode, mods...)
			if errors.Is(err, abi.ErrRecursive) {
				continue
			}
			if err != nil {
				tb.Fatalf("%s/%s: %v", w.Name, mode, err)
			}
			out = append(out, registryProgram{fmt.Sprintf("%s/%s", w.Name, mode), prog})
		}
	}
	return out
}

// TestReportConcurrent runs vet.Report from four goroutines at once,
// each over the registry programs in a different order, and requires
// every report to equal a sequential run's. Each order starts with a
// PTA program, whose widest function reaches R84, and goes on to
// narrower ones, so scratch sized for one function and shared with
// another would show up here, and under -race as a data race.
func TestReportConcurrent(t *testing.T) {
	progs := registryPrograms(t)
	want := make([]*vet.ProgramReport, len(progs))
	pta := -1
	for i, rp := range progs {
		want[i] = vet.Report(rp.prog)
		if pta < 0 && strings.HasPrefix(rp.name, "PTA/") {
			pta = i
		}
	}
	if pta < 0 {
		t.Fatal("registry has no PTA program")
	}
	n := len(progs)
	orders := [4][]int{}
	for g := range orders {
		order := []int{pta}
		for k := 0; k < n; k++ {
			var i int
			switch g {
			case 0: // forward
				i = k
			case 1: // reverse
				i = n - 1 - k
			case 2: // stride 2: odd indices, then even ones
				i = (2*k + 1) % (n | 1)
			default: // rotated by a third
				i = (k + n/3) % n
			}
			if i != pta {
				order = append(order, i)
			}
		}
		orders[g] = order
	}
	got := make([][]*vet.ProgramReport, len(orders))
	var wg sync.WaitGroup
	for g := range orders {
		got[g] = make([]*vet.ProgramReport, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range orders[g] {
				got[g][i] = vet.Report(progs[i].prog)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, rep := range got[g] {
			if !reflect.DeepEqual(rep, want[i]) {
				t.Errorf("goroutine %d: %s: concurrent report differs from the sequential one", g, progs[i].name)
			}
		}
	}
}

// maxRegistryAlloc bounds what vet.Report in every ABI mode plus
// opt.OptimizeAll allocate over the 22 Table I workloads: a tenth of
// what 256-register states rebuilt per block, per round and per edge
// allocate here (234 MB). States reused but 256 registers wide
// allocate 32 MB, so the bound holds the register window.
const maxRegistryAlloc = 23_000_000

// TestRegistryAllocations is the allocation guard for vet's abstract
// interpreters and the optimizer that re-runs them.
func TestRegistryAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	progs := registryPrograms(t)
	var mods [][]*kir.Module
	for _, w := range workloads.All() {
		mods = append(mods, w.Modules())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, rp := range progs {
		vet.Report(rp.prog)
	}
	for _, m := range mods {
		if _, _, err := opt.OptimizeAll(m...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("vet.Report x %d programs + opt.OptimizeAll x %d workloads: %.1f MB", len(progs), len(mods), float64(got)/1e6)
	if got > maxRegistryAlloc {
		t.Errorf("allocated %d bytes, want at most %d", got, maxRegistryAlloc)
	}
}

// BenchmarkReport is vet.Report over every Table I workload in every
// ABI mode; one iteration covers the whole set. Profile it with
// go test -run '^$' -bench Report -cpuprofile cpu.out ./internal/vet
func BenchmarkReport(b *testing.B) {
	progs := registryPrograms(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, rp := range progs {
			vet.Report(rp.prog)
		}
	}
}

// patchNop replaces the first NOP of the named function with in.
func patchNop(t *testing.T, p *isa.Program, fn string, in isa.Instruction) {
	t.Helper()
	for fi := range p.Funcs {
		if p.Funcs[fi].Name != fn {
			continue
		}
		for i := range p.Funcs[fi].Code {
			if p.Funcs[fi].Code[i].Op == isa.OpNop {
				p.Funcs[fi].Code[i] = in
				return
			}
		}
	}
	t.Fatalf("no NOP in %s to patch", fn)
}

// reportDigest hashes the report's full JSON form.
func reportDigest(t *testing.T, rep *vet.ProgramReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestReportWindowEdges pins the reports of two functions at the edges
// of the register window the abstract interpreters size their states
// to: a kernel whose highest register is R254, the last one below
// NoReg, and a device function whose PUSH reaches past every register
// it names. Both also read NoReg (R255) as an operand, which lies
// outside either window and must read as its entry value: the constant
// 0 in a kernel (callee-saved registers start zeroed), unknown in a
// device function. The pinned reports were produced with states
// holding all 256 registers, so they check that the window changes
// nothing.
func TestReportWindowEdges(t *testing.T) {
	noRegRead := func(op isa.Op, dst uint8, imm int32) isa.Instruction {
		return isa.Instruction{Op: op, Dst: dst, SrcA: isa.NoReg, SrcB: isa.NoReg,
			SrcC: isa.NoReg, Pred: isa.NoPred, Imm: imm}
	}

	// R254: a kernel counting in R254 across a loop, an IADD and a
	// local load whose address operand is NoReg. In the kernel NoReg
	// reads as the constant 0: the sync pass finds R5 = R255+3 uniform,
	// so the branch on R5 < 10 is not divergent, and the range pass
	// proves the load at [R255-8] out of bounds. (The range pass reads
	// an ALU operand named NoReg as unknown, so neither edge is dead.)
	wide := &kir.Module{Name: "wide"}
	k := kir.NewKernel("wide")
	k.S2R(254, isa.SrTID).
		ForN(200, 201, 4, func(b *kir.Builder) { b.IAddI(254, 254, 1) }).
		Nop().Nop().
		MovI(2, 0).
		SetPI(1, isa.CmpLT, 5, 10).
		If(1, func(b *kir.Builder) { b.MovI(7, 1) }, func(b *kir.Builder) { b.MovI(7, 2) }).
		StG(2, 0, 254).
		StG(2, 4, 6).
		StG(2, 8, 7).
		Exit()
	wide.AddFunc(k.MustBuild())
	wideProg := link(t, abi.Baseline, wide)
	patchNop(t, wideProg, "wide", noRegRead(isa.OpIAdd, 5, 3))
	patchNop(t, wideProg, "wide", noRegRead(isa.OpLdL, 6, -8))

	// PUSH past the names: a CARS device function declaring 40
	// callee-saved registers that names only R16 and R17, with a
	// shared load from [R255+4] and R8 = R255+1. In a device function
	// NoReg is unknown and possibly varying, so the branch on R8 < 10
	// is divergent and no edge of it is dead.
	push := &kir.Module{Name: "push"}
	f := kir.NewFunc("pushy").SetCalleeSaved(40)
	f.MovI(16, 1).S2R(17, isa.SrLaneID).IAdd(16, 16, 17).
		Nop().Nop().
		SetPI(2, isa.CmpLT, 8, 10).
		If(2, func(b *kir.Builder) { b.MovI(9, 1) }, func(b *kir.Builder) { b.MovI(9, 2) }).
		IAdd(4, 4, 16).IAdd(4, 4, 9).Ret()
	push.AddFunc(f.MustBuild())
	pk := kir.NewKernel("main")
	pk.MovI(4, 7).Call("pushy").MovI(2, 0).StG(2, 0, 4).Exit()
	push.AddFunc(pk.MustBuild())
	pushProg := link(t, abi.CARS, push)
	patchNop(t, pushProg, "pushy", noRegRead(isa.OpLdS, 7, 4))
	patchNop(t, pushProg, "pushy", noRegRead(isa.OpIAdd, 8, 1))

	cases := []struct {
		name   string
		prog   *isa.Program
		text   string
		digest string
	}{
		{"R254", wideProg, wantWideText, wantWideDigest},
		{"push-past-names", pushProg, wantPushText, wantPushDigest},
	}
	for _, tc := range cases {
		rep := vet.Report(tc.prog)
		var b strings.Builder
		renderReport(&b, rep)
		if got := b.String(); got != tc.text {
			t.Errorf("%s: report text\n%s\nwant\n%s", tc.name, got, tc.text)
		}
		if got := reportDigest(t, rep); got != tc.digest {
			t.Errorf("%s: report digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

const (
	wantWideText = `func wide kernel=true saved=0 depth=0 spill=0 maxlive=4 div=0 bars=0
kernel wide slots=0 tight=0 budget=0 trap=false barriersafe=true racefree=true shared=0
diag info: wide[5]: branch condition never holds: the branch is statically dead [dead-branch]
diag error: wide[11]: LDL accesses local memory at a provably negative address [-8,-8] [oob-access]
`
	wantWideDigest = "2df1db731711267c53f01378a8989d72d8a55539854a03ce06a3c22144cf3455"

	wantPushText = `func pushy kernel=false saved=40 depth=40 spill=0 maxlive=3 div=1 bars=0
func main kernel=true saved=0 depth=0 spill=0 maxlive=12 div=0 bars=0
kernel main slots=41 tight=41 budget=41 trap=false barriersafe=true racefree=false shared=0
diag warning: main: reaches pushy, which accesses user shared memory: cross-function races not analyzed [shared-race]
diag info: main: worst-case register-stack demand (41 slots) fits the low-watermark allocation (41): the circular-stack spill trap is statically unreachable [trap-unreachable]
diag warning: pushy[0]: PUSH renames 40 register-stack slots but R18, R19, R20, R21, R22, R23, R24, R25, R26, R27, R28, R29, R30, R31, R32, R33, R34, R35, R36, R37, R38, R39, R40, R41, R42, R43, R44, R45, R46, R47, R48, R49, R50, R51, R52, R53, R54 and R55 are never referenced: a narrower window would free 38 slot(s) [over-wide-push]
`
	wantPushDigest = "1d52eb68707bfaa30d9374f7d149be61c6143e6016f5421825fe971edffcde95"
)
