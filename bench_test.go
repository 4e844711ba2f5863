// Ablations on CARS' design choices, one benchmark each; each
// reports its speedups as custom metrics. Run them with `make bench`.
// The paper's exhibits themselves are regenerated and checked by
// internal/experiments' TestPublished (`make published`).
package carsgo_test

import (
	"strconv"
	"testing"

	"carsgo"
	"carsgo/internal/cars"
	"carsgo/internal/config"
)

// BenchmarkAblationAllocationMechanism compares the static watermark
// points against the Fig. 5 adaptive machine on MST (the workload the
// paper says suffers most from spills): the adaptive result should land
// near the best static point without knowing it in advance.
func BenchmarkAblationAllocationMechanism(b *testing.B) {
	w, err := carsgo.Workload("MST")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := carsgo.Run(carsgo.Baseline(), w)
		if err != nil {
			b.Fatal(err)
		}
		bestStatic := 0.0
		for _, lvl := range []cars.Level{
			{Kind: cars.KindLow, N: 1},
			{Kind: cars.KindNxLow, N: 2},
			{Kind: cars.KindHigh},
		} {
			res, err := carsgo.Run(carsgo.CARSForced(lvl), w)
			if err != nil {
				b.Fatal(err)
			}
			if s := res.Speedup(base); s > bestStatic {
				bestStatic = s
			}
		}
		adaptive, err := carsgo.Run(carsgo.CARS(), w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bestStatic, "best-static-x")
		b.ReportMetric(adaptive.Speedup(base), "adaptive-x")
	}
}

// BenchmarkAblationIssueOverhead varies the extra issue/operand-
// collector pipeline cycle the paper charges CARS (§IV-C, worst case 1)
// to show the mechanism is not sensitive to it.
func BenchmarkAblationIssueOverhead(b *testing.B) {
	w, err := carsgo.Workload("SSSP")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := carsgo.Run(carsgo.Baseline(), w)
		if err != nil {
			b.Fatal(err)
		}
		for _, extra := range []int64{0, 1, 4} {
			cfg := config.WithCARS(config.V100())
			cfg.CARSIssueExtra = extra
			cfg.Name = "CARS-extra" + strconv.FormatInt(extra, 10)
			res, err := carsgo.Run(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Speedup(base), "x-extra"+strconv.FormatInt(extra, 10))
		}
	}
}

// BenchmarkAblationRegGranularity varies the register-allocation
// rounding granularity, which trades internal fragmentation against
// allocator slack in the register stack.
func BenchmarkAblationRegGranularity(b *testing.B) {
	w, err := carsgo.Workload("SVR")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := carsgo.Run(carsgo.Baseline(), w)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range []int{2, 8, 32} {
			cfg := config.WithCARS(config.V100())
			cfg.RegGranularity = g
			cfg.Name = "CARS-gran" + strconv.Itoa(g)
			res, err := carsgo.Run(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Speedup(base), "x-gran"+strconv.Itoa(g))
		}
	}
}

// BenchmarkAblationRegisterWindows measures the §VII alternative the
// paper dismisses: SPARC-style fixed-size register windows on the same
// hardware budget. Windows waste the difference between the window size
// and each callee's true FRU, which shows up as extra trap traffic and
// a lower speedup than exact-FRU CARS.
func BenchmarkAblationRegisterWindows(b *testing.B) {
	w, err := carsgo.Workload("MST")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := carsgo.Run(carsgo.Baseline(), w)
		if err != nil {
			b.Fatal(err)
		}
		crs, err := carsgo.Run(carsgo.CARS(), w)
		if err != nil {
			b.Fatal(err)
		}
		win, err := carsgo.Run(config.WithRegisterWindows(config.V100()), w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(crs.Speedup(base), "cars-x")
		b.ReportMetric(win.Speedup(base), "windows-x")
		b.ReportMetric(float64(win.Stats.TrapSpillSlots+win.Stats.TrapFillSlots)/
			float64(maxu(crs.Stats.TrapSpillSlots+crs.Stats.TrapFillSlots, 1)), "window-trap-ratio")
	}
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkAblationSharedSpill measures the CRAT-like alternative (§VII):
// spilling callee-saved registers to shared memory removes L1D spill
// traffic like CARS does, at the cost of charging per-thread spill
// frames against shared memory. On this suite's modest frame sizes the
// scheme is competitive — its real limits are structural: it needs a
// static frame bound (recursive FIB does not compile under it, see
// TestFacadeSharedSpill) and it competes with the application's own
// shared-memory budget, which CARS never touches.
func BenchmarkAblationSharedSpill(b *testing.B) {
	for _, name := range []string{"MST", "SVR"} {
		w, err := carsgo.Workload(name)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			base, err := carsgo.Run(carsgo.Baseline(), w)
			if err != nil {
				b.Fatal(err)
			}
			smem, err := carsgo.Run(config.WithSharedSpill(config.V100()), w)
			if err != nil {
				b.Fatal(err)
			}
			crs, err := carsgo.Run(carsgo.CARS(), w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(smem.Speedup(base), name+"-smem-x")
			b.ReportMetric(crs.Speedup(base), name+"-cars-x")
		}
	}
}

// BenchmarkAblationRFBanks turns on the operand-collector banking model
// at several bank counts. CARS relocates callee-saved registers into
// the stack region, so its bank-conflict profile differs from the
// baseline's; the ablation shows the headline result is insensitive.
func BenchmarkAblationRFBanks(b *testing.B) {
	w, err := carsgo.Workload("SSSP")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, banks := range []int{0, 4, 8} {
			base := carsgo.Baseline()
			base.RFBanks = banks
			base.Name = "V100-banks" + strconv.Itoa(banks)
			crs := carsgo.CARS()
			crs.RFBanks = banks
			crs.Name = "V100+CARS-banks" + strconv.Itoa(banks)
			rb, err := carsgo.Run(base, w)
			if err != nil {
				b.Fatal(err)
			}
			rc, err := carsgo.Run(crs, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rc.Speedup(rb), "x-banks"+strconv.Itoa(banks))
		}
	}
}
