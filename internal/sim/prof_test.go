package sim_test

import (
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/sim"
	"carsgo/internal/workloads"
)

// BenchmarkSimMST builds a GPU and simulates MST under the baseline
// ABI per iteration; `make prof` profiles it. ns/warp-instr divides the
// whole iteration's time, construction and setup included, by the
// warp-instructions simulated.
func BenchmarkSimMST(b *testing.B) {
	w, _ := workloads.ByName("MST")
	prog, err := abi.Link(abi.Baseline, w.Modules()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var total uint64
	for i := 0; i < b.N; i++ {
		gpu, _ := sim.New(config.V100(), prog)
		launches, _ := w.Setup(gpu)
		var cycles int64
		var instr uint64
		for _, l := range launches {
			st, err := gpu.Run(l)
			if err != nil {
				b.Fatal(err)
			}
			cycles += st.Cycles
			instr += st.TotalInstructions()
		}
		total += instr
		b.ReportMetric(float64(cycles), "cycles")
		b.ReportMetric(float64(instr), "warp-instrs")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/warp-instr")
}
