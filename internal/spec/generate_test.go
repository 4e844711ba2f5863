package spec_test

import (
	"context"
	"reflect"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// TestGenerateDeterministic: the generator is a pure function of its
// seed, bit for bit — equal structs, equal canonical JSON, equal
// lowered assembly. CI reproducibility rests on this.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		a, b := spec.Generate(seed), spec.Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, spec.Encode(a), spec.Encode(b))
		}
		if spec.Canon(a) != spec.Canon(b) {
			t.Fatalf("seed %d: canonical forms differ", seed)
		}
		am, bm := a.Modules(), b.Modules()
		for i := range am {
			if asm.Format(am[i]) != asm.Format(bm[i]) {
				t.Fatalf("seed %d: lowered module %s differs between generations", seed, am[i].Name)
			}
		}
	}
}

// TestGenerateValidAndDiverse: every generated spec validates and
// round-trips, and the seed range exercises the structure space the
// fuzzer depends on (call chains, indirect dispatch, loops,
// divergence, barriers, shared staging).
func TestGenerateValidAndDiverse(t *testing.T) {
	var withFuncs, withIndirect, withLoop, withDivergent, withBarrier, withSmem int
	for seed := uint64(1); seed <= 128; seed++ {
		s := spec.Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
		got, err := spec.Parse(spec.Encode(s))
		if err != nil {
			t.Fatalf("seed %d: round trip: %v", seed, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: Parse(Encode(s)) != s", seed)
		}
		if len(s.Funcs) > 0 {
			withFuncs++
		}
		if s.Kernel.BarrierEvery > 0 {
			withBarrier++
		}
		if s.Kernel.SmemWords > 0 {
			withSmem++
		}
		for i := range s.Funcs {
			f := &s.Funcs[i]
			if len(f.Indirect) == 2 {
				withIndirect++
			}
			if f.Loop != nil {
				withLoop++
			}
			if f.Divergent {
				withDivergent++
			}
		}
	}
	for what, n := range map[string]int{
		"funcs": withFuncs, "indirect": withIndirect, "loop": withLoop,
		"divergent": withDivergent, "barrier": withBarrier, "smem": withSmem,
	} {
		if n == 0 {
			t.Errorf("128 seeds produced no spec with %s — generator lost a structure class", what)
		}
	}
}

// TestLoweredAsmRoundTrips: spec → kir → asm text → parse → asm text
// is stable, so generated programs survive the textual toolchain (the
// form the fuzz corpus seeds use).
func TestLoweredAsmRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		s := spec.Generate(seed)
		for _, m := range s.Modules() {
			text := asm.Format(m)
			back, err := asm.ParseString(text)
			if err != nil {
				t.Fatalf("seed %d %s: reparse: %v", seed, m.Name, err)
			}
			if again := asm.Format(back); again != text {
				t.Fatalf("seed %d %s: format not stable across a parse round trip", seed, m.Name)
			}
		}
	}
}

// TestGeneratedSpecsDifferentialClean is a bounded in-tree slice of
// the carsfuzz campaign: each seed's spec must vet clean, link under
// every ABI mode, and pass the full static/dynamic differential
// (dominance + occupancy exactness). The 200-spec campaign lives in
// `make fuzz`; this keeps `go test ./...` self-contained.
func TestGeneratedSpecsDifferentialClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential in -short mode")
	}
	for seed := uint64(1); seed <= 10; seed++ {
		s := spec.Generate(seed)
		mods := s.Modules()
		if d := vet.Modules(mods...); !vet.Clean(d) {
			t.Errorf("seed %d: pre-ABI diagnostics: %v", seed, d)
			continue
		}
		w := workloads.FromSpec(s)
		for _, mode := range abi.Modes {
			prog, err := abi.LinkStrict(mode, mods...)
			if err != nil {
				t.Errorf("seed %d %s: link: %v", seed, mode, err)
				continue
			}
			if err := prog.Validate(); err != nil {
				t.Errorf("seed %d %s: isa: %v", seed, mode, err)
				continue
			}
			if rep := vet.Report(prog); !vet.Clean(rep.Diags) {
				t.Errorf("seed %d %s: linked diagnostics: %v", seed, mode, rep.Diags)
				continue
			}
			u, err := san.Link(w, mode)
			if err != nil {
				t.Errorf("seed %d %s: link: %v", seed, mode, err)
				continue
			}
			res, err := u.PerfDiff(context.Background(), 1e9)
			if err != nil {
				t.Errorf("seed %d %s: differential: %v", seed, mode, err)
				continue
			}
			if !res.OK() {
				t.Errorf("seed %d %s: disagreements: %v", seed, mode, res.Violations)
			}
		}
	}
}
