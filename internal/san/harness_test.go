package san

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/opt"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/harness.golden")

const harnessPath = "testdata/harness.golden"

// harnessSpec is the checked-in workload spec the golden runs through
// every harness.
const harnessSpec = "../spec/testdata/workloads/COLI.json"

// goldenLine renders one harness result: harness, unit, mode and the
// sha256 of the result's JSON encoding.
func goldenLine(t *testing.T, harness, unit, mode string, res any) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("%s %s %s %s", harness, unit, mode, hex.EncodeToString(sum[:]))
}

// TestHarnessGolden pins the whole result of every harness — negative,
// diff, perf and opt — on a subset that runs in a few seconds: the four
// negatives; FIB (trap traffic, and the shared-spill skip) through
// diff, perf and opt; the cheapest perf case, whose shared-spill run
// walks the RF-cache window ladder; one checked-in spec through diff
// and opt; and the two vetdemo files under the smoke launch. A
// refactor of the harness path must pass it unchanged.
// Regenerate with: go test ./internal/san -run HarnessGolden -update
func TestHarnessGolden(t *testing.T) {
	if opt.Weakened() || vet.Weakened() {
		t.Skip("weakened build: the harness results move on purpose")
	}
	ctx := context.Background()
	s, err := spec.Load(harnessSpec)
	if err != nil {
		t.Fatal(err)
	}
	fib, err := workloads.ByName("FIB")
	if err != nil {
		t.Fatal(err)
	}
	perfCase, err := workloads.ByName("PERF_ShallowCall")
	if err != nil {
		t.Fatal(err)
	}
	sw := workloads.FromSpec(s)

	var lines []string
	neg, _, err := DiffNegatives(ctx, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range neg {
		lines = append(lines, goldenLine(t, "negative", res.Workload, res.Mode, res))
	}
	diffs, _, err := DiffWorkloads(ctx, []*workloads.Workload{fib, sw}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range diffs {
		lines = append(lines, goldenLine(t, "diff", res.Workload, res.Mode, res))
	}
	for _, path := range []string{"../../examples/vetdemo/clean.carsasm", "../../examples/vetdemo/broken.carsasm"} {
		for _, mode := range abi.Modes {
			res := runFile(t, path, mode)
			lines = append(lines, goldenLine(t, "diff", res.Workload, res.Mode, res))
		}
	}
	perfs, _, err := PerfDiffWorkloads(ctx, []*workloads.Workload{fib, perfCase}, DefaultRegret, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range perfs {
		lines = append(lines, goldenLine(t, "perf", res.Workload, res.Mode, res))
	}
	opts, _, err := OptDiffWorkloads(ctx, []*workloads.Workload{fib, sw}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range opts {
		lines = append(lines, goldenLine(t, "opt", res.Workload, res.Mode, res))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(harnessPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(harnessPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
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
			t.Fatalf("harness digest mismatch at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update)", i+1, g, w)
		}
	}
}
