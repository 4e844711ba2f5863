package sim_test

import (
	"runtime"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/sim"
	"carsgo/internal/workloads"
)

// The cycle loop's steady state allocates almost nothing: RAY under the
// baseline and CARS allocates at most 0.1 heap objects per simulated
// warp-instruction, counted from runtime.MemStats around the launches.
func TestRunAllocationRate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w, err := workloads.ByName("RAY")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  sim.Config
		mode abi.Mode
	}{
		{config.V100(), abi.Baseline},
		{config.WithCARS(config.V100()), abi.CARS},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			prog, err := abi.Link(tc.mode, w.Modules()...)
			if err != nil {
				t.Fatal(err)
			}
			gpu, err := sim.New(tc.cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			launches, err := w.Setup(gpu)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			var winstr uint64
			runtime.ReadMemStats(&before)
			for _, l := range launches {
				st, err := gpu.Run(l)
				if err != nil {
					t.Fatal(err)
				}
				winstr += st.TotalInstructions()
			}
			runtime.ReadMemStats(&after)
			perInstr := float64(after.Mallocs-before.Mallocs) / float64(winstr)
			t.Logf("%d allocations over %d warp-instructions: %.4f per warp-instruction",
				after.Mallocs-before.Mallocs, winstr, perInstr)
			if perInstr > 0.1 {
				t.Errorf("GPU.Run allocates %.3f objects per warp-instruction, want <= 0.1", perInstr)
			}
		})
	}
}
