package vet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/vet"
)

// loadFixture parses a testdata .carsasm file, links it in the given
// mode, and returns its vet report.
func loadFixture(t *testing.T, name string, mode abi.Mode) *vet.ProgramReport {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := asm.ParseString(string(raw))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	p, err := abi.Link(mode, m)
	if err != nil {
		t.Fatalf("link %s [%s]: %v", name, mode, err)
	}
	return vet.Report(p)
}

// TestNestedLoopCostSymbolic: trip counts are outside vet's scope, so
// per-iteration costs must surface as symbolic ×loop terms — with the
// nesting depth in the exponent — and never as a finite number.
func TestNestedLoopCostSymbolic(t *testing.T) {
	for _, mode := range []abi.Mode{abi.Baseline, abi.CARS} {
		rep := loadFixture(t, "nestedloop.carsasm", mode)

		fr := rep.Func("nest")
		if fr == nil || fr.Cost == nil {
			t.Fatalf("[%s] no cost report for kernel nest", mode)
		}
		if fr.Cost.Loops != 2 {
			t.Errorf("[%s] nest: got %d loops, want 2", mode, fr.Cost.Loops)
		}
		if fr.Cost.Irreducible {
			t.Errorf("[%s] nest: flagged irreducible, loops are natural", mode)
		}
		lb := fr.Cost.LocalBytes
		if lb.Finite() {
			t.Errorf("[%s] nest: local bytes finite (%d), want symbolic", mode, lb.Value)
		}
		if lb.Unbounded {
			t.Errorf("[%s] nest: local bytes unbounded, want symbolic ×loop", mode)
		}
		if !strings.Contains(lb.Sym, "×loop^2") {
			t.Errorf("[%s] nest: local bytes %q lacks the depth-2 term", mode, lb.Sym)
		}

		// The callee's own bound is per-activation and loop-free.
		ar := rep.Func("accum")
		if ar == nil || ar.Cost == nil {
			t.Fatalf("[%s] no cost report for accum", mode)
		}
		// Baseline adds the callee-saved window's spill store + fill.
		want := int64(8)
		if mode == abi.Baseline {
			want = 16
		}
		if alb := ar.Cost.LocalBytes; !alb.Finite() || alb.Value != want {
			t.Errorf("[%s] accum: local bytes %s, want %d", mode, alb.Sym, want)
		}

		// Interprocedurally the kernel multiplies the callee's costs by
		// the call site's loop context.
		kr := rep.Kernel("nest")
		if kr == nil || kr.Perf == nil {
			t.Fatalf("[%s] no kernel perf report", mode)
		}
		klb := kr.Perf.Cost.LocalBytes
		if klb.Finite() || klb.Unbounded {
			t.Errorf("[%s] kernel: local bytes %q, want symbolic", mode, klb.Sym)
		}
		if !strings.Contains(klb.Sym, "×loop") {
			t.Errorf("[%s] kernel: local bytes %q lacks a ×loop term", mode, klb.Sym)
		}
		if mode == abi.Baseline {
			// Baseline spills accum's callee-saved window per activation,
			// and activations scale with the outer loop.
			if ss := kr.Perf.Cost.SpillStores; ss.Finite() || !strings.Contains(ss.Sym, "×loop") {
				t.Errorf("[baseline] kernel: spill stores %q, want ×loop term", ss.Sym)
			}
		}
	}
}

// TestIrreducibleCostUnbounded: a two-entry cycle has no natural-loop
// trip count; the analysis must degrade to "unbounded", not guess.
func TestIrreducibleCostUnbounded(t *testing.T) {
	for _, mode := range []abi.Mode{abi.Baseline, abi.CARS} {
		rep := loadFixture(t, "irreducible.carsasm", mode)
		fr := rep.Func("twoentry")
		if fr == nil || fr.Cost == nil {
			t.Fatalf("[%s] no cost report for twoentry", mode)
		}
		if !fr.Cost.Irreducible {
			t.Errorf("[%s] twoentry: not flagged irreducible", mode)
		}
		lb := fr.Cost.LocalBytes
		if !lb.Unbounded || lb.Finite() {
			t.Errorf("[%s] twoentry: local bytes %q, want unbounded", mode, lb.Sym)
		}
		if lb.Sym != "unbounded" {
			t.Errorf("[%s] twoentry: Sym %q, want %q", mode, lb.Sym, "unbounded")
		}
		kr := rep.Kernel("twoentry")
		if kr == nil || kr.Perf == nil {
			t.Fatalf("[%s] no kernel perf report", mode)
		}
		if klb := kr.Perf.Cost.LocalBytes; !klb.Unbounded {
			t.Errorf("[%s] kernel: local bytes %q, want unbounded", mode, klb.Sym)
		}
	}
}

// TestCyclicIrreducibleDeterministic: k1 and k2 reach one recursive
// cycle (fa <-> fb) whose member fa holds an irreducible loop. Each
// kernel's cost bound comes from its own walk of the call graph, so
// both kernels are flagged irreducible on every run. A memo shared
// across kernels, visited in map order, let the second kernel reuse an
// entry computed while the cycle was still open: k2's flag, and with
// it the report's JSON, changed from run to run.
func TestCyclicIrreducibleDeterministic(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "cyclicirreducible.carsasm"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := asm.ParseString(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	linked := 0
	for _, mode := range abi.Modes {
		p, err := abi.Link(mode, m)
		if errors.Is(err, abi.ErrRecursive) {
			continue
		}
		if err != nil {
			t.Fatalf("link [%s]: %v", mode, err)
		}
		linked++
		var first []byte
		for run := 0; run < 64; run++ {
			rep := vet.Report(p)
			for _, k := range []string{"k1", "k2"} {
				kr := rep.Kernel(k)
				if kr == nil || kr.Perf == nil {
					t.Fatalf("[%s] run %d: no perf report for %s", mode, run, k)
				}
				if !kr.Perf.Cost.Irreducible {
					t.Fatalf("[%s] run %d: %s reaches fa's irreducible loop but is not flagged", mode, run, k)
				}
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("[%s] run %d: report JSON differs from run 0", mode, run)
			}
		}
	}
	if linked < 2 {
		t.Fatalf("fixture linked in %d ABI modes, want baseline and CARS", linked)
	}
}
