package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/san"
	"carsgo/internal/sim"
	"carsgo/internal/workloads"
)

var residentRE = regexp.MustCompile(`^  (\S+) .* (\d+) resident warps, `)

// occupancyRows runs printOccupancy and returns, per launch-shape
// header, the printed level names and resident-warp counts in order.
func occupancyRows(t *testing.T, w *workloads.Workload, cfg carsgo.Config, lto bool) (levels map[string][]string, resident map[string][]int) {
	t.Helper()
	var out bytes.Buffer
	if err := printOccupancy(&out, w, cfg, lto); err != nil {
		t.Fatal(err)
	}
	levels, resident = map[string][]string{}, map[string][]int{}
	header := ""
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "  ") {
			header = line
			continue
		}
		m := residentRE.FindStringSubmatch(line)
		if m == nil || header == "" {
			t.Fatalf("unparsable occupancy line %q in\n%s", line, out.String())
		}
		n, _ := strconv.Atoi(m[2])
		levels[header] = append(levels[header], m[1])
		resident[header] = append(resident[header], n)
	}
	return levels, resident
}

// setUp compiles w for cfg and runs its setup on a fresh GPU.
func setUp(t *testing.T, w *workloads.Workload, cfg carsgo.Config, lto bool) (*isa.Program, *sim.GPU, []isa.Launch) {
	t.Helper()
	prog, err := carsgo.Compile(cfg, w.Modules(), lto)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := carsgo.NewGPU(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	launches, err := w.Setup(gpu)
	if err != nil {
		t.Fatal(err)
	}
	return prog, gpu, launches
}

// TestOccupancyMatchesMeasuredResidency holds -occupancy to the
// simulator: at -config base, the resident warps printed for a launch
// shape equal the opening-wave residency the simulator measures for
// every launch of that shape.
func TestOccupancyMatchesMeasuredResidency(t *testing.T) {
	cfg, lto, err := config.Named("base")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FIB", "TRAF", "Bert_AtScore"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, printed := occupancyRows(t, w, cfg, lto)
			_, gpu, launches := setUp(t, w, cfg, lto)
			for i, shape := range san.Shapes(launches) {
				st, err := gpu.RunContext(context.Background(), launches[i])
				if err != nil {
					t.Fatal(err)
				}
				header := shapeHeader(shape)
				if got := printed[header]; len(got) != 1 || got[0] != st.ResidentWarps {
					t.Errorf("%s: printed resident warps %v, simulator measured %d", header, got, st.ResidentWarps)
				}
			}
		})
	}
}

// TestOccupancyPrintsCARSLadder: under a CARS config every level of
// the launch's watermark ladder gets a row, in ladder order.
func TestOccupancyPrintsCARSLadder(t *testing.T) {
	cfg, lto, err := config.Named("cars")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("MST")
	if err != nil {
		t.Fatal(err)
	}
	printed, _ := occupancyRows(t, w, cfg, lto)
	prog, _, launches := setUp(t, w, cfg, lto)
	shape := san.Shapes(launches)[0]
	plan, err := san.MachineParamsFor(cfg).PlanFor(prog, shape)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, lvl := range plan.Levels {
		want = append(want, lvl.Name())
	}
	if len(want) < 2 {
		t.Fatalf("MST ladder %v: want a multi-level ladder to check", want)
	}
	header := shapeHeader(shape)
	if got := printed[header]; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s: printed levels %v, ladder %v", header, got, want)
	}
}
