package san

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/config"
	"carsgo/internal/workloads"
)

// diffSubset keeps the in-test differential sweep fast; the full
// 22-workload sweep runs via `make san` / `carsvet -diff`.
// FIB exercises deep recursion (circular-stack trap spills and fills),
// GOL a call-heavy leaf chain, SSSP an irregular divergent workload.
var diffSubset = []string{"FIB", "GOL", "SSSP"}

// TestDiffWorkloads is the differential acceptance gate on a subset:
// the sanitizer must stay silent and every static vet bound must
// dominate the observed dynamic behaviour, in every linkable ABI mode.
func TestDiffWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy differential sweep")
	}
	list, err := Select(diffSubset, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, ok, err := DiffWorkloads(context.Background(), list, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Skipped {
			continue
		}
		for _, d := range res.Diags {
			t.Errorf("%s/%s: sanitizer: %s", res.Workload, res.Mode, d)
		}
		for _, v := range res.Violations {
			t.Errorf("%s/%s: dominance: %s", res.Workload, res.Mode, v)
		}
	}
	if !ok && !t.Failed() {
		t.Error("DiffWorkloads reported failure without diagnostics")
	}
}

// TestDiffNegatives locks the negative side of the differential: the
// deliberately-racy and barrier-divergent workloads must be flagged by
// BOTH the static verifier and the sanitizer, and their clean twins by
// neither, in every ABI mode.
func TestDiffNegatives(t *testing.T) {
	results, ok, err := DiffNegatives(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for _, v := range res.Violations {
			t.Errorf("%s/%s: %s", res.Workload, res.Mode, v)
		}
		for _, d := range res.Diags {
			t.Errorf("%s/%s: sanitizer: %s", res.Workload, res.Mode, d)
		}
	}
	if !ok && !t.Failed() {
		t.Error("DiffNegatives reported failure without diagnostics")
	}
	if n := len(results); n != 4*len(abi.Modes) {
		t.Errorf("expected %d negative runs, got %d", 4*len(abi.Modes), n)
	}
}

// TestDiffTrapsExercised makes sure the dominance check is not
// vacuous: FIB's recursion must actually drive the circular-stack
// trap, so the sanitizer's spill/fill cross-checking really ran.
func TestDiffTrapsExercised(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	w, err := workloads.ByName("FIB")
	if err != nil {
		t.Fatal(err)
	}
	u, err := Link(w, abi.CARS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Diff(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var spills, fills uint64
	for _, ko := range res.Obs.Kernels {
		spills += ko.TrapSpillSlots
		fills += ko.TrapFillSlots
	}
	if spills == 0 || fills == 0 {
		t.Errorf("FIB/cars exercised no trap traffic (spills=%d fills=%d): the trap checks are vacuous", spills, fills)
	}
	if !res.OK() {
		t.Errorf("FIB/cars: %v %v", res.Diags, res.Violations)
	}
}

// runFile runs an assembly file's unit under the smoke launch, without
// the vet gate (the point is to watch broken programs misbehave
// dynamically).
func runFile(t *testing.T, path string, mode abi.Mode) *DiffResult {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := asm.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	u, err := Link(Smoke(filepath.Base(path), mod), mode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Diff(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBrokenFlagged: the deliberately ABI-violating demo program must
// be caught dynamically by the sanitizer, in both the renamed (CARS)
// and physical (baseline) register models.
func TestBrokenFlagged(t *testing.T) {
	const path = "../../examples/vetdemo/broken.carsasm"
	for _, tc := range []struct {
		mode abi.Mode
		want []Kind
	}{
		// Under CARS the uninitialized R16 read hits a fresh renamed
		// slot and the R17 write lands outside the 1-register window.
		{abi.CARS, []Kind{KindUninitRead, KindABIClobber}},
		// Under the baseline ABI the R17 write physically clobbers the
		// caller's register, caught by the return snapshot.
		{abi.Baseline, []Kind{KindUninitRead, KindABIClobber}},
	} {
		diags := runFile(t, path, tc.mode).Diags
		for _, want := range tc.want {
			found := false
			for _, d := range diags {
				if d.Kind == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: broken.carsasm produced no %s diagnostic (got %v)", tc.mode, want, diags)
			}
		}
	}
}

// TestCleanDemoSilent: the companion clean demo must run diag-free.
func TestCleanDemoSilent(t *testing.T) {
	const path = "../../examples/vetdemo/clean.carsasm"
	for _, mode := range abi.Modes {
		for _, d := range runFile(t, path, mode).Diags {
			t.Errorf("%s: clean.carsasm: %s", mode, d)
		}
	}
}

// TestSmokeLaunchPicksKernel covers the harness helper.
func TestSmokeLaunchPicksKernel(t *testing.T) {
	mod, err := asm.ParseString(".kernel zeta\n EXIT\n.kernel alpha\n EXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := abi.Link(abi.Baseline, mod)
	if err != nil {
		t.Fatal(err)
	}
	l, err := SmokeLaunch(prog)
	if err != nil {
		t.Fatal(err)
	}
	if l.Kernel != "alpha" {
		t.Errorf("SmokeLaunch picked %q, want the alphabetically first kernel", l.Kernel)
	}
	if l.Dim.Grid != 1 || l.Dim.Block != 64 || len(l.Params) != 8 {
		t.Errorf("unexpected smoke launch shape: %+v", l)
	}
}

// TestConfigFor maps every mode to a configuration that enables it.
func TestConfigFor(t *testing.T) {
	if c := ConfigFor(abi.CARS); !c.CARSEnabled {
		t.Error("ConfigFor(CARS) does not enable CARS")
	}
	if c := ConfigFor(abi.Baseline); c.CARSEnabled {
		t.Error("ConfigFor(Baseline) enables CARS")
	}
	if c := ConfigFor(abi.SharedSpill); !strings.Contains(c.Name, config.V100().Name) {
		t.Errorf("ConfigFor(SharedSpill) strays from the V100 base: %q", c.Name)
	}
}
