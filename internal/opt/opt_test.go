package opt_test

import (
	"errors"
	"reflect"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/opt"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

func one(t *testing.T, f *kir.Func) *kir.Module {
	t.Helper()
	m := &kir.Module{Name: "t"}
	m.AddFunc(f)
	return m
}

func certNames(certs []opt.Certificate) map[string]int {
	out := map[string]int{}
	for _, c := range certs {
		out[c.Transform]++
	}
	return out
}

// A constant branch condition folds, and the arm it disconnects
// disappears with it, licensed by the same dead-branch fact.
func TestFoldConstantBranch(t *testing.T) {
	k := kir.NewKernel("k").
		MovI(10, 3).
		SetPI(0, isa.CmpEQ, 10, 3). // provably true
		If(0,
			func(b *kir.Builder) { b.MovI(11, 1) },
			func(b *kir.Builder) { b.MovI(11, 2); b.MovI(12, 9) }).
		ShlI(9, 11, 2).
		IAdd(9, 5, 9).
		StG(9, 0, 11).
		Exit().MustBuild()
	m := one(t, k)
	before := len(k.Code)

	res, err := opt.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	names := certNames(res.Certs)
	if names[opt.TransformFoldBranch] == 0 {
		t.Fatalf("no fold-branch certificate; certs: %v", res.Certs)
	}
	nk := res.Module.Funcs[0]
	if len(nk.Code) >= before {
		t.Errorf("fold removed nothing: %d → %d instructions", before, len(nk.Code))
	}
	for i := range nk.Code {
		if nk.Code[i].Op == isa.OpMovI && nk.Code[i].Imm == 2 {
			t.Errorf("dead else-arm instruction survived at %d", i)
		}
	}
	for _, c := range res.Certs {
		if c.Fact.Name == "" {
			t.Errorf("certificate without licensing fact: %v", c)
		}
	}
	if _, err := abi.Link(abi.Baseline, res.Module); err != nil {
		t.Fatalf("optimized module does not link: %v", err)
	}
}

// A pure def nothing reads is deleted in a kernel, but the same def in
// a device function survives: all of R0..R15 count as caller-visible
// at RET.
func TestDeadDefKernelVsDevice(t *testing.T) {
	k := kir.NewKernel("k").
		MovI(9, 7). // dead
		MovI(11, 42).
		ShlI(12, 4, 2).
		IAdd(10, 5, 12).
		StG(10, 0, 11).
		Exit().MustBuild()
	res, err := opt.Optimize(one(t, k))
	if err != nil {
		t.Fatal(err)
	}
	if n := certNames(res.Certs)[opt.TransformDeadDef]; n != 1 {
		t.Fatalf("kernel: want exactly 1 dead-def certificate, got %d (%v)", n, res.Certs)
	}
	for i := range res.Module.Funcs[0].Code {
		if in := res.Module.Funcs[0].Code[i]; in.Op == isa.OpMovI && in.Imm == 7 {
			t.Errorf("dead MOVI survived at %d", i)
		}
	}

	dev := kir.NewFunc("leaf").
		MovI(8, 5). // dead by convention, but caller-visible: must survive
		IAddI(4, 4, 1).
		Ret().MustBuild()
	res, err = opt.Optimize(one(t, dev))
	if err != nil {
		t.Fatal(err)
	}
	if n := certNames(res.Certs)[opt.TransformDeadDef]; n != 0 {
		t.Fatalf("device func: scratch def below R16 deleted (%v)", res.Certs)
	}
}

// An unreferenced callee-saved slot narrows the declared window, and
// the surviving slots are renamed to close the hole.
func TestNarrowWindow(t *testing.T) {
	dev := kir.NewFunc("leaf").SetCalleeSaved(3).
		Mov(16, 4).
		IAddI(18, 16, 1). // R17 never referenced
		Mov(4, 18).
		Ret().MustBuild()
	res, err := opt.Optimize(one(t, dev))
	if err != nil {
		t.Fatal(err)
	}
	if n := certNames(res.Certs)[opt.TransformNarrow]; n != 1 {
		t.Fatalf("want 1 narrow-window certificate, got %v", res.Certs)
	}
	nf := res.Module.Funcs[0]
	if nf.CalleeSaved != 2 {
		t.Errorf("CalleeSaved = %d, want 2", nf.CalleeSaved)
	}
	var buf [3]uint8
	for i := range nf.Code {
		in := &nf.Code[i]
		if in.WritesReg() && in.Dst == 18 {
			t.Errorf("stale reference to R18 at %d", i)
		}
		for _, r := range in.Reads(buf[:0]) {
			if r == 18 {
				t.Errorf("stale read of R18 at %d", i)
			}
		}
	}
	if nf.RegsUsed != 18 { // R16,R17 window → watermark 18
		t.Errorf("RegsUsed = %d, want 18", nf.RegsUsed)
	}
}

// A single-candidate selector devirtualizes the indirect call, and the
// now-unused function-index def cascades away in a later round.
func TestDevirtualizeCascades(t *testing.T) {
	m := &kir.Module{Name: "t"}
	m.AddFunc(kir.NewFunc("target").IAddI(4, 4, 1).Ret().MustBuild())
	m.AddFunc(kir.NewFunc("other").IAddI(4, 4, 2).Ret().MustBuild())
	m.AddFunc(kir.NewKernel("k").
		MovI(4, 10).
		// The selector lives in R16: kernels use the callee-saved range
		// freely, and R16 is outside the R4..R15 argument window that
		// liveness must keep alive across calls — so once the call is
		// direct, the def is provably dead.
		MovFuncIdx(16, "target").
		CallIndirect(16, "target", "other").
		ShlI(9, 6, 2).
		IAdd(9, 5, 9).
		StG(9, 0, 4).
		Exit().MustBuild())

	res, err := opt.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	names := certNames(res.Certs)
	if names[opt.TransformDevirt] != 1 {
		t.Fatalf("want 1 devirtualize certificate, got %v", res.Certs)
	}
	if names[opt.TransformDeadDef] == 0 {
		t.Errorf("function-index def did not cascade away: %v", res.Certs)
	}
	var nk *kir.Func
	for _, f := range res.Module.Funcs {
		if f.IsKernel {
			nk = f
		}
	}
	sawCall := false
	for i := range nk.Code {
		switch nk.Code[i].Op {
		case isa.OpCallI:
			t.Errorf("indirect call survived at %d", i)
		case isa.OpCall:
			sawCall = true
			if name := nk.CallNames[nk.Code[i].Callee]; name != "target" {
				t.Errorf("devirtualized to %q, want target", name)
			}
		}
	}
	if !sawCall {
		t.Error("no direct call emitted")
	}
	if len(nk.IndirectTargets) != 0 {
		t.Errorf("IndirectTargets not spliced: %v", nk.IndirectTargets)
	}
	if len(nk.FuncRefs) != 0 {
		t.Errorf("FuncRefs entry for deleted MOVI survived: %v", nk.FuncRefs)
	}
}

// The optimizer refuses modules with vet errors: no fact derived from
// a broken function is trustworthy.
func TestRefusesErrModule(t *testing.T) {
	bad := &kir.Func{Name: "bad", Code: []isa.Instruction{
		{Op: isa.OpIAdd, Dst: 8, SrcA: 8, SrcB: isa.NoReg, SrcC: isa.NoReg, Pred: isa.NoPred, Imm: 1},
		// no terminator
	}}
	m := &kir.Module{Name: "t"}
	m.AddFunc(bad)
	if _, err := opt.Optimize(m); err == nil {
		t.Fatal("Optimize accepted a module with vet errors")
	}
}

// Optimize never mutates its input module.
func TestInputUnmutated(t *testing.T) {
	w, err := workloads.ByName("FIB")
	if err != nil {
		t.Fatal(err)
	}
	mods := w.Modules()
	snap := w.Modules() // independent build of the same modules
	for _, m := range mods {
		if _, err := opt.Optimize(m); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(mods, snap) {
		t.Error("Optimize mutated its input module")
	}
}

// Every registry workload optimizes without error, every certificate
// names its licensing fact, and the optimized modules still link in
// every ABI mode. The corpus as a whole must yield at least one
// rewrite, or the optimizer is vacuous on real code.
func TestRegistryWorkloadsOptimize(t *testing.T) {
	total := 0
	for _, w := range workloads.All() {
		mods, certs, err := opt.OptimizeAll(w.Modules()...)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range certs {
			if c.Fact.Name == "" || c.Fact.Func == "" {
				t.Errorf("%s: certificate without licensing fact: %v", w.Name, c)
			}
		}
		total += len(certs)
		for _, mode := range abi.Modes {
			if _, err := abi.Link(mode, mods...); err != nil && !errors.Is(err, abi.ErrRecursive) {
				t.Errorf("%s/%s: optimized modules do not link: %v", w.Name, mode, err)
			}
		}
		// The optimized module must still be vet-clean at module level.
		for _, m := range mods {
			for _, d := range vet.Modules(m) {
				if d.Sev >= vet.SevError {
					t.Errorf("%s: optimized module has vet error: %s", w.Name, d)
				}
			}
		}
	}
	if total == 0 {
		t.Error("optimizer found nothing to rewrite across the whole registry")
	}
	t.Logf("registry certificates: %d", total)
}

// BenchmarkOptimizeAll optimizes every Table I workload's modules; one
// iteration covers the whole registry. Each Optimize re-runs
// vet.Modules and vet.ModuleFacts once per rewrite round. Profile it
// with go test -run '^$' -bench OptimizeAll -cpuprofile cpu.out ./internal/opt
func BenchmarkOptimizeAll(b *testing.B) {
	var sets [][]*kir.Module
	for _, w := range workloads.All() {
		sets = append(sets, w.Modules())
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, mods := range sets {
			if _, _, err := opt.OptimizeAll(mods...); err != nil {
				b.Fatal(err)
			}
		}
	}
}
