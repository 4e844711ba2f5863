package vet_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/san"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

const backendsGoldenPath = "testdata/backends.golden"

// renderBackendLattice is the stable text projection of one report's
// spill-policy lattice: every backend column with its per-level
// occupancy and residual-traffic cells, each backend's advice, in the
// report's deterministic order.
func renderBackendLattice(b *strings.Builder, rep *vet.ProgramReport) {
	for i := range rep.Kernels {
		kr := &rep.Kernels[i]
		if kr.Perf == nil {
			continue
		}
		if len(kr.Perf.Backends) == 0 {
			fmt.Fprintf(b, "kernel %s: no lattice\n", kr.Kernel)
			continue
		}
		for _, bp := range kr.Perf.Backends {
			fmt.Fprintf(b, "kernel %s backend %s highfree=%v\n", kr.Kernel, bp.Backend, bp.HighFree)
			for _, bl := range bp.Levels {
				fmt.Fprintf(b, "  level %-6s stack=%-4d regs=%-3d blocks=%d resident=%-2d limit=%q covered=%v spill=%s txns=%s\n",
					bl.Level, bl.StackSlots, bl.RegsPerWarp, bl.Blocks, bl.ResidentWarps,
					bl.LimitedBy, bl.Covered, bl.SpillSmemBytes.Sym, bl.SmemTxns.Sym)
			}
			if a := bp.Advice; a != nil {
				fmt.Fprintf(b, "  advice %s idx=%d reason=%q\n", a.Level, a.LevelIndex, a.Reason)
			}
		}
	}
}

// TestGoldenBackendLattice locks the cross-backend lattice on one
// registry workload (CFD: multi-function, spilling, links in every
// mode): per-mode backend columns, each level's admission-exact
// occupancy and residual traffic bounds, and the merged cross-backend
// advice. Any change to the lattice — cost refinements, admission
// mirroring, advisor scoring — must show up as a reviewed golden diff.
// Regenerate with: go test ./internal/vet/ -run GoldenBackend -update
func TestGoldenBackendLattice(t *testing.T) {
	w, err := workloads.ByName("CFD")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var reps []*vet.ProgramReport
	for _, mode := range abi.Modes {
		// The workload's own launch geometry, off an unstarted sim.
		u, err := san.Link(w, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if _, err := u.Plan(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		fmt.Fprintf(&b, "== CFD [%s]\n", mode)
		renderBackendLattice(&b, u.Rep)
		reps = append(reps, u.Rep)
	}
	for _, ca := range vet.CrossBackendAdvice(reps...) {
		fmt.Fprintf(&b, "cross %s -> %s/%s reason=%q\n", ca.Kernel, ca.Backend, ca.Level, ca.Reason)
		for _, row := range ca.Rows {
			fmt.Fprintf(&b, "  row %-7s %-6s resident=%-2d covered=%v score=%.1f\n",
				row.Backend, row.Level, row.ResidentWarps, row.Covered, row.Score)
		}
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(backendsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(backendsGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update)", i+1, g, w)
		}
	}
	t.Fatal("golden mismatch (regenerate with -update)")
}
