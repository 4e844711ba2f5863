package experiments

import (
	"context"
	"fmt"
	"strings"

	"carsgo"
	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/workloads"
)

// runKernel runs one kernel of a workload in isolation under a
// configuration: every launch of that kernel, in the workload's launch
// order, and no other.
func runKernel(ctx context.Context, cfg sim.Config, w *workloads.Workload, kernel string) (*carsgo.Result, error) {
	mode := abi.Baseline
	if cfg.CARSEnabled {
		mode = abi.CARS
	}
	prog, err := abi.Link(mode, w.Modules()...)
	if err != nil {
		return nil, err
	}
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	launches, err := w.Setup(gpu)
	if err != nil {
		return nil, err
	}
	res := &carsgo.Result{Config: cfg.Name, Workload: w.Name + "/" + kernel}
	for _, l := range launches {
		if l.Kernel != kernel {
			continue
		}
		st, err := gpu.RunContext(ctx, l)
		if err != nil {
			return nil, err
		}
		res.PerLaunch = append(res.PerLaunch, st)
		res.Stats.Merge(st)
	}
	if len(res.PerLaunch) == 0 {
		return nil, fmt.Errorf("experiments: %s kernel %q not found", w.Name, kernel)
	}
	return res, nil
}

// ptaKernel is the request for one PTA kernel under a configuration.
func ptaKernel(cfgName, kernel string) request {
	return request{cfgName: cfgName, workload: "PTA", kernel: kernel}
}

// Fig14 regenerates Fig. 14: per-kernel PTA speedup under each
// allocation mechanism (Low, NxLow ladder, High, and the adaptive
// state machine), normalised to the baseline.
func (r *Runner) Fig14() (*Table, error) {
	kernels := workloads.PTAKernelNames()
	policies := []struct {
		label  string
		policy cars.Policy
	}{
		{"Low", cars.ForcedPolicy(cars.Level{Kind: cars.KindLow, N: 1})},
		{"2xLow", cars.ForcedPolicy(cars.Level{Kind: cars.KindNxLow, N: 2})},
		{"4xLow", cars.ForcedPolicy(cars.Level{Kind: cars.KindNxLow, N: 4})},
		{"High", cars.ForcedPolicy(cars.Level{Kind: cars.KindHigh})},
		{"Adaptive", cars.AdaptivePolicy()},
	}
	base := r.baseName()
	cfgNames := make([]string, len(policies))
	cols := []string{"Kernel"}
	for i, p := range policies {
		cfg := config.WithCARSPolicy(config.V100(), p.policy)
		cfg.Name = "V100+CARS-" + p.label
		cfgNames[i] = r.defineConfig(cfg)
		cols = append(cols, p.label)
	}
	var reqs []request
	for _, k := range kernels {
		reqs = append(reqs, ptaKernel(base, k))
		for _, c := range cfgNames {
			reqs = append(reqs, ptaKernel(c, k))
		}
	}
	r.prefetch(reqs)
	t := &Table{
		ID:      "fig14",
		Title:   "PTA per-kernel speedup by allocation mechanism (vs baseline)",
		Columns: append(cols, "CtxSw(High)"),
	}
	for _, k := range kernels {
		b, err := r.fetch(ptaKernel(base, k))
		if err != nil {
			return nil, err
		}
		row := []string{k}
		var ctxSw uint64
		for i, c := range cfgNames {
			res, err := r.fetch(ptaKernel(c, k))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtX(res.Speedup(b)))
			if policies[i].label == "High" {
				ctxSw = res.Stats.ContextSwitches
			}
		}
		// Context switches observed under forced High.
		t.Rows = append(t.Rows, append(row, fmt.Sprintf("%d", ctxSw)))
	}
	t.Notes = append(t.Notes,
		"paper: over half of PTA's kernels gain nothing (no calls); only K1 favours High despite context switches; K3-style kernels avoid High")
	return t, nil
}

// Table3 regenerates Table III: software-trap frequency and severity
// for the workloads that still spill under CARS. The paper measures
// converged applications, so the table reports the final kernel launch
// of each app — after the Fig. 5 machine has settled — rather than the
// exploration phase.
func (r *Runner) Table3() (*Table, error) {
	carsN := r.carsName()
	var reqs []request
	for _, n := range allNames() {
		reqs = append(reqs, request{carsN, n, false, ""})
	}
	r.prefetch(reqs)
	t := &Table{
		ID:    "tab3",
		Title: "Software trap handling at steady state under CARS (paper: PTA 0.014%, 0.78 B/call)",
		Columns: []string{"Workload", "Calls trapping",
			"Bytes spilled/filled per call"},
	}
	var trapping []string
	for _, n := range allNames() {
		res, err := r.result(carsN, n, false)
		if err != nil {
			return nil, err
		}
		// Steady state: the app's final launch sequence (for PTA, the
		// final iteration over its kernels).
		st := steadyState(res)
		if st.TrapCalls == 0 && st.ContextSwitches == 0 {
			continue
		}
		frac := float64(st.TrapCalls) / float64(maxU64(st.Calls, 1))
		// Bytes include both trap spills/fills and context switches
		// (Table III counts both), per warp-level call, per thread.
		slots := st.TrapSpillSlots + st.TrapFillSlots + 2*st.CtxSwitchSlots
		bytesPerCall := float64(slots*4) / float64(maxU64(st.Calls, 1))
		t.Rows = append(t.Rows, []string{n, fmtPct(frac),
			fmt.Sprintf("%.2f", bytesPerCall)})
		trapping = append(trapping, n)
	}
	if len(t.Rows) == 0 {
		t.Rows = append(t.Rows, []string{"(none)", "-", "-"})
		trapping = append(trapping, "none")
	}
	t.addHeadline("Workloads still trapping under CARS", "PTA only", strings.Join(trapping, ", "))
	t.Notes = append(t.Notes,
		"measured on each app's final launch (converged allocation); FIB traps by design — its dynamic depth exceeds the one-iteration static bound (§VI-C)")
	return t, nil
}

// steadyState aggregates the second half of an app's launches (its
// converged behaviour); single-launch apps return their only launch.
func steadyState(res *carsgo.Result) *stats.Kernel {
	n := len(res.PerLaunch)
	if n <= 1 {
		return &res.Stats
	}
	agg := &stats.Kernel{}
	for _, st := range res.PerLaunch[n/2:] {
		agg.Merge(st)
	}
	return agg
}

// Fig11 regenerates Fig. 11: the global/local L1D bandwidth timeline
// for PTA's call-heavy kernel, baseline vs CARS, and the average
// global-bandwidth uplift (paper: +98%).
func (r *Runner) Fig11() (*Table, error) {
	const kernel = "PTA_K7_kernel"
	const window = 2048
	timeline := func(c sim.Config) string {
		c = config.WithTimeline(c, window)
		c.Name += "-Timeline"
		return r.defineConfig(c)
	}
	baseQ := ptaKernel(timeline(config.V100()), kernel)
	carsQ := ptaKernel(timeline(config.WithCARS(config.V100())), kernel)
	r.prefetch([]request{baseQ, carsQ})
	base, err := r.fetch(baseQ)
	if err != nil {
		return nil, err
	}
	crs, err := r.fetch(carsQ)
	if err != nil {
		return nil, err
	}
	// Plot the final (converged) invocation of the kernel.
	baseTL := base.PerLaunch[len(base.PerLaunch)-1]
	carsTL := crs.PerLaunch[len(crs.PerLaunch)-1]
	t := &Table{
		ID:    "fig11",
		Title: "L1D bandwidth timeline for PTA's call-heavy kernel (sectors per window)",
		Columns: []string{"Window", "Base global", "Base local",
			"CARS global", "CARS local"},
	}
	bt, ct := baseTL.Timeline, carsTL.Timeline
	nrows := len(bt)
	if len(ct) > nrows {
		nrows = len(ct)
	}
	if nrows > 24 {
		nrows = 24
	}
	for i := 0; i < nrows; i++ {
		row := []string{fmt.Sprintf("%d", i)}
		if i < len(bt) {
			row = append(row, fmt.Sprintf("%d", bt[i].GlobalSectors), fmt.Sprintf("%d", bt[i].LocalSectors))
		} else {
			row = append(row, "-", "-")
		}
		if i < len(ct) {
			row = append(row, fmt.Sprintf("%d", ct[i].GlobalSectors), fmt.Sprintf("%d", ct[i].LocalSectors))
		} else {
			row = append(row, "-", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	bAvg := avgGlobalBW(bt, window)
	cAvg := avgGlobalBW(ct, window)
	uplift := 0.0
	if bAvg > 0 {
		uplift = cAvg/bAvg - 1
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average global bandwidth: baseline %.3f, CARS %.3f sectors/cycle (%+.1f%%; paper +98%%)",
		bAvg, cAvg, 100*uplift))
	t.addHeadline("PTA kernel global-bandwidth uplift", "+98%", fmt.Sprintf("%+.1f%%", 100*uplift))
	return t, nil
}

func avgGlobalBW(tl []stats.BWSample, window int64) float64 {
	if len(tl) == 0 {
		return 0
	}
	var total uint64
	for _, s := range tl {
		total += s.GlobalSectors
	}
	return float64(total) / float64(int64(len(tl))*window)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
