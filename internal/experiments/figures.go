package experiments

import (
	"fmt"
	"slices"
	"strings"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/mem"
	"carsgo/internal/stats"
)

// Table1 regenerates Table I: call depth and CPKI per workload,
// measured on the baseline, against the paper's reported values.
func (r *Runner) Table1() (*Table, error) {
	base := r.baseName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:    "tab1",
		Title: "22 function-calling workloads: call depth and CPKI (measured vs paper)",
		Columns: []string{"Workload", "Suite", "Depth", "Depth(paper)",
			"CPKI", "CPKI(paper)"},
	}
	depthMatches := 0
	for _, n := range allNames() {
		res, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		w, _ := carsgo.Workload(n)
		if res.Stats.MaxCallDepth == w.PaperCallDepth {
			depthMatches++
		}
		t.Rows = append(t.Rows, []string{
			n, w.Suite,
			fmt.Sprintf("%d", res.Stats.MaxCallDepth),
			fmt.Sprintf("%d", w.PaperCallDepth),
			fmt.Sprintf("%.1f", res.Stats.CPKI()),
			fmt.Sprintf("%.2f", w.PaperCPKI),
		})
	}
	depths := "identical per workload"
	if depthMatches != len(allNames()) {
		depths = fmt.Sprintf("%d of %d identical", depthMatches, len(allNames()))
	}
	t.addHeadline("Call depths (Table I)", "1-17", depths)
	return t, nil
}

// accessBreakdownRow renders one L1D access breakdown.
func accessBreakdownRow(st *stats.Kernel, denom float64) []string {
	spill := float64(st.L1D.Accesses[mem.ClassLocalSpill])
	global := float64(st.L1D.Accesses[mem.ClassGlobal])
	other := float64(st.L1D.Accesses[mem.ClassLocalOther])
	return []string{
		fmtPct(spill / denom), fmtPct(global / denom), fmtPct(other / denom),
	}
}

// Fig2 regenerates Fig. 2: L1D accesses broken into spills/fills,
// globals, and other locals, averaged over the 22 workloads on the
// baseline. The paper reports 40.4% spills/fills.
func (r *Runner) Fig2() (*Table, error) {
	base := r.baseName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig2",
		Title:   "Baseline L1D access breakdown (paper avg: 40.4% spills/fills)",
		Columns: []string{"Workload", "Spill/Fill", "Global", "OtherLocal"},
	}
	var sumSpill, sumGlobal, sumOther float64
	for _, n := range allNames() {
		res, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		st := &res.Stats
		total := float64(st.L1D.TotalAccesses())
		if total == 0 {
			total = 1
		}
		t.Rows = append(t.Rows, append([]string{n}, accessBreakdownRow(st, total)...))
		sumSpill += float64(st.L1D.Accesses[mem.ClassLocalSpill]) / total
		sumGlobal += float64(st.L1D.Accesses[mem.ClassGlobal]) / total
		sumOther += float64(st.L1D.Accesses[mem.ClassLocalOther]) / total
	}
	nw := float64(len(allNames()))
	t.Rows = append(t.Rows, []string{"AVG",
		fmtPct(sumSpill / nw), fmtPct(sumGlobal / nw), fmtPct(sumOther / nw)})
	t.addHeadline("Baseline spill/fill share of L1D accesses", "40.4%", fmtPct(sumSpill/nw))
	return t, nil
}

// Fig8 regenerates Fig. 8: speedups of Idealized Virtual Warps, 10MB
// L1, Best-SWL, and CARS over the baseline V100, with geomeans. The
// paper's CARS geomean is 1.26×.
func (r *Runner) Fig8() (*Table, error) {
	base, ideal, tenMB, cars := r.baseName(), r.idealName(), r.tenMBName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs,
			request{base, n, false, ""}, request{ideal, n, false, ""},
			request{tenMB, n, false, ""}, request{cars, n, false, ""})
		for _, s := range []int{1, 2, 3, 4, 8, 16} {
			reqs = append(reqs, request{r.swlName(s), n, false, ""})
		}
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig8",
		Title:   "Speedup over baseline V100 (paper: CARS geomean 1.26x)",
		Columns: []string{"Workload", "IdealVW", "10MB-L1", "Best-SWL", "CARS"},
	}
	var gIdeal, gTen, gSWL, gCARS []float64
	best, bestX := "", 0.0
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		iv, err := r.result(ideal, n, false)
		if err != nil {
			return nil, err
		}
		tm, err := r.result(tenMB, n, false)
		if err != nil {
			return nil, err
		}
		sw, err := r.bestSWL(n)
		if err != nil {
			return nil, err
		}
		cs, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		row := []string{n, fmtX(iv.Speedup(b)), fmtX(tm.Speedup(b)),
			fmtX(sw.Speedup(b)), fmtX(cs.Speedup(b))}
		t.Rows = append(t.Rows, row)
		gIdeal = append(gIdeal, iv.Speedup(b))
		gTen = append(gTen, tm.Speedup(b))
		gSWL = append(gSWL, sw.Speedup(b))
		gCARS = append(gCARS, cs.Speedup(b))
		if x := cs.Speedup(b); x > bestX {
			best, bestX = n, x
		}
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN",
		fmtX(stats.Geomean(gIdeal)), fmtX(stats.Geomean(gTen)),
		fmtX(stats.Geomean(gSWL)), fmtX(stats.Geomean(gCARS))})
	t.addHeadline(fmt.Sprintf("CARS speedup, geomean over %d workloads", len(allNames())),
		"1.26x", fmtX(stats.Geomean(gCARS))+"x")
	t.addHeadline("Best workload", "MST (~1.9x)", fmt.Sprintf("%s (%sx)", best, fmtX(bestX)))
	t.addHeadline("Best-SWL geomean", "~1.0 (floors at baseline)", fmtX(stats.Geomean(gSWL)))
	t.addHeadline("Idealized Virtual Warps geomean", "~1.0", fmtX(stats.Geomean(gIdeal)))
	return t, nil
}

// Fig9 regenerates Fig. 9: memory accesses with CARS, broken down by
// class and normalised to the baseline's total. The paper reports the
// spill/fill fraction dropping by 40% on average.
func (r *Runner) Fig9() (*Table, error) {
	base, cars := r.baseName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:    "fig9",
		Title: "L1D accesses under CARS, normalised to baseline total (paper: spills/fills -40%)",
		Columns: []string{"Workload", "Base Spill", "CARS Spill",
			"Base Global", "CARS Global", "Total vs base"},
	}
	var reduction []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		denom := float64(b.Stats.L1D.TotalAccesses())
		if denom == 0 {
			denom = 1
		}
		bs := float64(b.Stats.L1D.Accesses[mem.ClassLocalSpill]) / denom
		cs := float64(c.Stats.L1D.Accesses[mem.ClassLocalSpill]) / denom
		t.Rows = append(t.Rows, []string{n,
			fmtPct(bs), fmtPct(cs),
			fmtPct(float64(b.Stats.L1D.Accesses[mem.ClassGlobal]) / denom),
			fmtPct(float64(c.Stats.L1D.Accesses[mem.ClassGlobal]) / denom),
			fmtPct(float64(c.Stats.L1D.TotalAccesses()) / denom),
		})
		reduction = append(reduction, bs-cs)
	}
	var avg float64
	for _, x := range reduction {
		avg += x
	}
	avg /= float64(len(reduction))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average spill/fill share of baseline traffic removed by CARS: %s", fmtPct(avg)))
	return t, nil
}

// Fig10 regenerates Fig. 10: the ALL-HIT study, where every spill/fill
// hits in the L1D at hit latency without touching tags.
func (r *Runner) Fig10() (*Table, error) {
	base, allhit, cars := r.baseName(), r.allHitName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""},
			request{allhit, n, false, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig10",
		Title:   "ALL-HIT spills/fills vs CARS, speedup over baseline",
		Columns: []string{"Workload", "ALL-HIT", "CARS"},
	}
	var gA, gC []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		a, err := r.result(allhit, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{n, fmtX(a.Speedup(b)), fmtX(c.Speedup(b))})
		gA = append(gA, a.Speedup(b))
		gC = append(gC, c.Speedup(b))
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN", fmtX(stats.Geomean(gA)), fmtX(stats.Geomean(gC))})
	return t, nil
}

// Fig12 regenerates Fig. 12: L1D MPKI for baseline and CARS (paper:
// 35% average reduction).
func (r *Runner) Fig12() (*Table, error) {
	base, cars := r.baseName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig12",
		Title:   "L1D MPKI (paper: CARS reduces MPKI by 35% on average)",
		Columns: []string{"Workload", "Baseline", "CARS", "Reduction"},
	}
	var reds []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		bm, cm := b.Stats.MPKI(), c.Stats.MPKI()
		red := 0.0
		if bm > 0 {
			red = 1 - cm/bm
		}
		reds = append(reds, red)
		t.Rows = append(t.Rows, []string{n,
			fmt.Sprintf("%.1f", bm), fmt.Sprintf("%.1f", cm), fmtPct(red)})
	}
	var avg float64
	for _, x := range reds {
		avg += x
	}
	t.Rows = append(t.Rows, []string{"AVG", "", "", fmtPct(avg / float64(len(reds)))})
	t.addHeadline("CARS MPKI reduction", "35%", fmtPct(avg/float64(len(reds))))
	return t, nil
}

// Fig13 regenerates Fig. 13: the dynamic instruction mix, normalised
// to the baseline's instruction count.
func (r *Runner) Fig13() (*Table, error) {
	base, cars := r.baseName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:    "fig13",
		Title: "Instruction mix, normalised to baseline instruction count",
		Columns: []string{"Workload", "Base Spill/Fill", "CARS Spill/Fill",
			"CARS Stack-ops", "CARS Total"},
	}
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		denom := float64(b.Stats.TotalInstructions())
		t.Rows = append(t.Rows, []string{n,
			fmtPct(float64(b.Stats.Instructions[stats.CatSpillFill]) / denom),
			fmtPct(float64(c.Stats.Instructions[stats.CatSpillFill]) / denom),
			fmtPct(float64(c.Stats.Instructions[stats.CatCARSOp]) / denom),
			fmtPct(float64(c.Stats.TotalInstructions()) / denom),
		})
	}
	return t, nil
}

// Table2 regenerates Table II: the dominant speedup factor per
// workload, classified from the measured sensitivity of each workload
// to the idealised configurations, alongside the paper's attribution.
func (r *Runner) Table2() (*Table, error) {
	base, tenMB, allhit, carsN := r.baseName(), r.tenMBName(), r.allHitName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""}, request{carsN, n, false, ""},
			request{tenMB, n, false, ""}, request{allhit, n, false, ""})
		for _, s := range []int{1, 2, 3, 4, 8, 16} {
			reqs = append(reqs, request{r.swlName(s), n, false, ""})
		}
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "tab2",
		Title:   "Main speedup factor per workload (measured classification vs paper)",
		Columns: []string{"Workload", "Measured", "Paper"},
	}
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		tm, err := r.result(tenMB, n, false)
		if err != nil {
			return nil, err
		}
		ah, err := r.result(allhit, n, false)
		if err != nil {
			return nil, err
		}
		sw, err := r.bestSWL(n)
		if err != nil {
			return nil, err
		}
		cs, err := r.result(carsN, n, false)
		if err != nil {
			return nil, err
		}
		w, _ := carsgo.Workload(n)
		t.Rows = append(t.Rows, []string{n,
			classifyFactor(b, tm, sw, ah, cs), w.SpeedupFactor})
	}
	return t, nil
}

// classifyFactor applies the paper's §VI-A attribution: a workload is
// "low local traffic" when it barely spills; "low occupancy" when CARS
// clearly beats every idealised configuration (§VI-A3: none of 10MB,
// Best-SWL, or ALL-HIT is comparable); bandwidth-bound when ALL-HIT
// explains at least as much as extra capacity would; and capacity-bound
// (with or without inter-warp contention, depending on whether the
// wavefront limiter also helps) otherwise.
func classifyFactor(b, tenMB, swl, allhit, cars *carsgo.Result) string {
	const lift = 1.07
	spillShare := b.Stats.SpillFillFraction()
	// Average resident warps per SM over the run.
	occ := float64(b.Stats.WarpCycles) / float64(b.Stats.Cycles) / float64(config.DefaultSMs)
	tm := tenMB.Speedup(b)
	sw := swl.Speedup(b)
	ah := allhit.Speedup(b)
	cs := cars.Speedup(b)
	switch {
	case spillShare < 0.30 && ah < lift:
		return "Low total local memory access count"
	case occ < 12 && cs >= 1.05 && ah < 0.95*cs && tm < 0.95*cs && sw < 0.95*cs:
		return "Low occupancy"
	case ah >= lift && ah >= tm:
		return "L1D bandwidth contention"
	case tm >= lift && sw >= lift:
		return "L1D capacity and contention"
	case tm >= lift:
		return "L1D capacity"
	default:
		return "L1D bandwidth contention"
	}
}

// Fig15 regenerates Fig. 15: energy efficiency normalised to the V100
// baseline (paper: CARS 28% more efficient on average).
func (r *Runner) Fig15() (*Table, error) {
	base, ideal, tenMB, cars := r.baseName(), r.idealName(), r.tenMBName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs,
			request{base, n, false, ""}, request{ideal, n, false, ""},
			request{tenMB, n, false, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig15",
		Title:   "Energy efficiency vs baseline (paper: CARS +28%)",
		Columns: []string{"Workload", "IdealVW", "10MB-L1", "Best-SWL", "CARS"},
	}
	var gI, gT, gS, gC []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		iv, err := r.result(ideal, n, false)
		if err != nil {
			return nil, err
		}
		tm, err := r.result(tenMB, n, false)
		if err != nil {
			return nil, err
		}
		sw, err := r.bestSWL(n)
		if err != nil {
			return nil, err
		}
		cs, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{n,
			fmtX(iv.EnergyEfficiency(b)), fmtX(tm.EnergyEfficiency(b)),
			fmtX(sw.EnergyEfficiency(b)), fmtX(cs.EnergyEfficiency(b))})
		gI = append(gI, iv.EnergyEfficiency(b))
		gT = append(gT, tm.EnergyEfficiency(b))
		gS = append(gS, sw.EnergyEfficiency(b))
		gC = append(gC, cs.EnergyEfficiency(b))
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN",
		fmtX(stats.Geomean(gI)), fmtX(stats.Geomean(gT)),
		fmtX(stats.Geomean(gS)), fmtX(stats.Geomean(gC))})
	t.addHeadline("CARS energy efficiency, geomean", "+28%",
		fmt.Sprintf("%+.0f%%", 100*(stats.Geomean(gC)-1)))
	return t, nil
}

// Fig16 regenerates Fig. 16: fully-inlined (LTO) code vs CARS (paper:
// LTO +28% vs CARS +26% on average, with some workloads worse inlined).
func (r *Runner) Fig16() (*Table, error) {
	base, cars := r.baseName(), r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base, n, false, ""},
			request{base, n, true, ""}, request{cars, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig16",
		Title:   "Fully inlined (LTO) vs CARS, speedup over baseline",
		Columns: []string{"Workload", "LTO", "CARS"},
	}
	var gL, gC []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		l, err := r.result(base, n, true)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{n, fmtX(l.Speedup(b)), fmtX(c.Speedup(b))})
		gL = append(gL, l.Speedup(b))
		gC = append(gC, c.Speedup(b))
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN", fmtX(stats.Geomean(gL)), fmtX(stats.Geomean(gC))})
	t.addHeadline("Fully-inlined (LTO) geomean", "1.28x (vs CARS 1.26x)",
		fmt.Sprintf("%sx (vs CARS %sx)", fmtX(stats.Geomean(gL)), fmtX(stats.Geomean(gC))))
	return t, nil
}

// Fig17 regenerates Fig. 17: L1D port bandwidth scaled 2x/4x/8x, for
// both the baseline and CARS, normalised to the 1x baseline. The 1x
// column is the plain baseline and CARS configurations.
func (r *Runner) Fig17() (*Table, error) {
	factors := []int{1, 2, 4, 8}
	baseNames := map[int]string{1: r.baseName()}
	carsNames := map[int]string{1: r.carsName()}
	for _, f := range factors[1:] {
		cb := config.ScaleL1Ports(config.V100(), f)
		cb.Name = fmt.Sprintf("V100-L1x%d", f)
		cc := config.ScaleL1Ports(config.WithCARS(config.V100()), f)
		cc.Name = fmt.Sprintf("V100+CARS-L1x%d", f)
		baseNames[f], carsNames[f] = r.defineConfig(cb), r.defineConfig(cc)
	}
	var reqs []request
	for _, n := range allNames() {
		for _, f := range factors {
			reqs = append(reqs, request{baseNames[f], n, false, ""},
				request{carsNames[f], n, false, ""})
		}
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig17",
		Title:   "L1 bandwidth scaling: geomean speedup over 1x baseline",
		Columns: []string{"Config", "1x", "2x", "4x", "8x"},
	}
	// row returns the geomean speedup at each port factor.
	row := func(names map[int]string) ([]float64, error) {
		var g []float64
		for _, f := range factors {
			var sp []float64
			for _, n := range allNames() {
				b, err := r.result(baseNames[1], n, false)
				if err != nil {
					return nil, err
				}
				c, err := r.result(names[f], n, false)
				if err != nil {
					return nil, err
				}
				sp = append(sp, c.Speedup(b))
			}
			g = append(g, stats.Geomean(sp))
		}
		return g, nil
	}
	// span renders the 2x-8x range of a row.
	span := func(g []float64) string {
		lo, hi := fmtX(slices.Min(g[1:])), fmtX(slices.Max(g[1:]))
		if lo == hi {
			return lo + "x"
		}
		return lo + "-" + hi + "x"
	}
	var spans []string
	for _, c := range []struct {
		label string
		names map[int]string
	}{{"Baseline", baseNames}, {"CARS", carsNames}} {
		g, err := row(c.names)
		if err != nil {
			return nil, err
		}
		cells := []string{c.label}
		for _, x := range g {
			cells = append(cells, fmtX(x))
		}
		t.Rows = append(t.Rows, cells)
		spans = append(spans, span(g))
	}
	t.Notes = append(t.Notes,
		"paper: baseline gains only 1.02-1.03x from 2-8x ports; CARS holds 1.28-1.29x")
	t.addHeadline("L1 ports 2-8x: baseline / CARS", "1.02-1.03x / 1.28-1.29x",
		strings.Join(spans, " / "))
	return t, nil
}

// Fig18 regenerates Fig. 18: CARS speedups on the Ampere RTX 3070.
func (r *Runner) Fig18() (*Table, error) {
	base3070 := r.defineConfig(config.RTX3070())
	cars3070 := r.defineConfig(config.WithCARS(config.RTX3070()))
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{base3070, n, false, ""}, request{cars3070, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig18",
		Title:   "CARS on RTX 3070 (Ampere), speedup over RTX 3070 baseline",
		Columns: []string{"Workload", "CARS", "CARS (V100, for reference)"},
	}
	var g []float64
	cars := r.carsName()
	base := r.baseName()
	for _, n := range allNames() {
		b, err := r.result(base3070, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(cars3070, n, false)
		if err != nil {
			return nil, err
		}
		bv, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		cv, err := r.result(cars, n, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{n, fmtX(c.Speedup(b)), fmtX(cv.Speedup(bv))})
		g = append(g, c.Speedup(b))
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN", fmtX(stats.Geomean(g)), ""})
	return t, nil
}
