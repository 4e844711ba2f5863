package experiments

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestRunsGoldenSlice re-simulates the cheapest lines of
// testdata/runs.golden and checks each byte for byte: every FIB run
// (the SWL ladder, IdealVW, ALL-HIT, 10MB-L1, RTX3070 with and without
// CARS, the L1 port scaling and LTO) and PTA's K4-K6 kernels under the
// baseline and each Fig. 14 allocation mechanism. Without it only the
// full `make published` run simulates most of those configurations.
func TestRunsGoldenSlice(t *testing.T) {
	r := NewRunner(runtime.NumCPU())
	fib := []column{under(r.idealName()), under(r.tenMBName()), under(r.allHitName())}
	for _, f := range []int{1, 2, 4, 8} {
		base, cars := r.portNames(f)
		fib = append(fib, under(base), under(cars))
	}
	base3070, cars3070 := r.rtx3070Names()
	fib = append(fib, under(base3070), under(cars3070))
	fib = append(append(fib, r.swlColumns()...), ltoUnder(r.baseName()))
	var pta []column
	for _, cfgName := range append([]string{r.baseName()}, r.policyNames()...) {
		pta = append(pta, ptaUnder(cfgName))
	}
	kernels := []string{"PTA_K4_kernel", "PTA_K5_kernel", "PTA_K6_kernel"}
	reqs := len(fib) + len(kernels)*len(pta)
	if _, err := r.grid([]string{"FIB"}, fib...); err != nil {
		t.Fatal(err)
	}
	if _, err := r.grid(kernels, pta...); err != nil {
		t.Fatal(err)
	}
	got, err := r.runLines()
	if err != nil {
		t.Fatal(err)
	}

	golden, err := os.ReadFile("testdata/runs.golden")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, line := range strings.SplitAfter(string(got), "\n") {
		if f := strings.Fields(line); len(f) == 5 {
			keys[strings.Join(f[:3], " ")] = true
		}
	}
	var want bytes.Buffer
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if f := strings.Fields(line); len(f) == 5 && keys[strings.Join(f[:3], " ")] {
			want.WriteString(line)
		}
	}
	if n := strings.Count(string(got), "\n"); n != reqs || strings.Count(want.String(), "\n") != n {
		t.Fatalf("%d requests ran %d simulations, %d of them in runs.golden",
			reqs, n, strings.Count(want.String(), "\n"))
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Errorf("re-simulated runs differ from testdata/runs.golden; %s", firstDiff(want.Bytes(), got))
	}
}
