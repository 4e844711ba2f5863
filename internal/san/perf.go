package san

import (
	"context"
	"errors"
	"fmt"
	"io"

	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// Perf differential: the dynamic validation of vet's static cost and
// occupancy analysis (DESIGN.md §9). For every workload and ABI mode
// it checks three properties against real executions:
//
//  1. Dominance — every finite static spill/traffic bound covers the
//     dynamic counters (folded into Check, shared with -diff).
//  2. Exactness — the static occupancy model predicts the simulator's
//     peak resident-warp count *exactly*: for non-CARS programs at the
//     baseline allocation, and for CARS programs at every ladder level,
//     each pinned with a forced policy.
//  3. Advice — the watermark advisor's recommended level, measured in
//     cycles, is never beaten by another level by more than the regret
//     threshold.

// DefaultRegret is the advisor regret threshold: the advised level may
// cost at most 35% more cycles than the best measured level.
const DefaultRegret = 0.35

// LevelRun is one measured design point of a kernel.
type LevelRun struct {
	Level       string `json:"level"`
	StackSlots  int    `json:"stackSlots"`
	StaticWarps int    `json:"staticWarps"` // vet's predicted wave occupancy
	SimWarps    int    `json:"simWarps"`    // stats.Kernel.ResidentWarps
	SanWarps    int    `json:"sanWarps"`    // sanitizer's admit/retire bookkeeping
	Cycles      int64  `json:"cycles"`
}

// BackendRun is one spill-policy backend's measured level ladder
// (the per-backend half of the lattice differential).
type BackendRun struct {
	Backend string     `json:"backend"`
	Levels  []LevelRun `json:"levels"`
	Advised string     `json:"advised,omitempty"`
	// Regret is the backend advisor's measured overshoot within its own
	// ladder — hard-gated at the regret threshold.
	Regret float64 `json:"regret"`
}

// PerfResult is the outcome of the perf differential for one workload
// under one ABI mode.
type PerfResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Skipped  bool   `json:"skipped,omitempty"`
	Reason   string `json:"reason,omitempty"`

	Kernel  string     `json:"kernel,omitempty"`
	Levels  []LevelRun `json:"levels,omitempty"`
	Advised string     `json:"advised,omitempty"`
	// Regret is the advised level's measured overshoot over the best
	// level: cycles(advised)/min(cycles) - 1. Zero when advised wins.
	Regret float64 `json:"regret"`

	// Backends carries the per-backend ladders measured under this mode
	// (shared-spill mode realises the smem and rfcache backends; CARS
	// mode's ladder is the Levels field above). CrossBackend/CrossRegret
	// record — without gating — how the cross-backend advisor's pick
	// fared against the best measured cell of this mode's lattice.
	Backends     []BackendRun `json:"backends,omitempty"`
	CrossBackend string       `json:"crossBackend,omitempty"`
	CrossRegret  float64      `json:"crossRegret,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// OK reports whether the run upheld every perf invariant.
func (r *PerfResult) OK() bool { return r.Skipped || len(r.Violations) == 0 }

// MachineParamsFor converts a simulator configuration into the plain
// parameter struct internal/vet's occupancy model consumes (vet cannot
// import internal/sim).
func MachineParamsFor(cfg sim.Config) vet.MachineParams {
	return vet.MachineParams{Machine: cfg.Machine, CARS: cfg.CARSEnabled}
}

// Shapes extracts the occupancy-relevant geometry of a launch list.
func Shapes(launches []isa.Launch) []vet.LaunchShape {
	out := make([]vet.LaunchShape, len(launches))
	for i, l := range launches {
		out[i] = vet.LaunchShape{
			Kernel:      l.Kernel,
			Grid:        l.Dim.Grid,
			Block:       l.Dim.Block,
			SharedBytes: l.SharedBytes,
		}
	}
	return out
}

// runMeasured is runVetted plus measurement: it returns the launches
// the setup produced and the per-launch kernel statistics alongside
// the sanitizer.
func runMeasured(ctx context.Context, prog *isa.Program, cfg sim.Config,
	setup func(g *sim.GPU) ([]isa.Launch, error)) (*Sanitizer, []isa.Launch, []*stats.Kernel, error) {
	g, err := sim.New(cfg, prog)
	if err != nil {
		return nil, nil, nil, err
	}
	s := New(prog)
	g.San = s
	launches, err := setup(g)
	if err != nil {
		return nil, nil, nil, err
	}
	var sts []*stats.Kernel
	for _, l := range launches {
		st, err := g.RunContext(ctx, l)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("san: launch %s: %w", l.Kernel, err)
		}
		sts = append(sts, st)
	}
	return s, launches, sts, nil
}

// peaks returns the opening-wave resident-warp counts of one measured
// run: the simulator's own statistic and the sanitizer's independently-
// tracked admit/exit bookkeeping for the given kernel.
func peaks(s *Sanitizer, sts []*stats.Kernel, kernel string) (sim, san int) {
	for _, st := range sts {
		if st.ResidentWarps > sim {
			sim = st.ResidentWarps
		}
	}
	for _, ko := range s.Observations().Kernels {
		if ko.Kernel == kernel {
			san = ko.ResidentWarps
		}
	}
	return sim, san
}

func sumCycles(sts []*stats.Kernel) int64 {
	var total int64
	for _, st := range sts {
		total += st.Cycles
	}
	return total
}

// PerfDiffWorkload runs the perf differential for one workload under
// one ABI mode.
func PerfDiffWorkload(ctx context.Context, w *workloads.Workload, mode abi.Mode, regret float64) (*PerfResult, error) {
	res := &PerfResult{Workload: w.Name, Mode: mode.String()}
	prog, err := abi.Link(mode, w.Modules()...)
	if err != nil {
		if errors.Is(err, abi.ErrRecursive) {
			res.Skipped, res.Reason = true, "recursive call graph"
			return res, nil
		}
		return nil, err
	}
	rep := vet.Report(prog)
	for _, d := range rep.Diags {
		if d.Sev >= vet.SevError {
			return nil, fmt.Errorf("san: program does not vet: %s", d)
		}
	}
	cfg := ConfigFor(mode)
	s, launches, sts, err := runMeasured(ctx, prog, cfg, w.Setup)
	if err != nil {
		if errors.Is(err, sim.ErrNoFit) {
			res.Skipped, res.Reason = true, "shared-spill frame exceeds shared memory"
			return res, nil
		}
		return nil, err
	}
	for _, d := range s.Diags() {
		res.Violations = append(res.Violations, fmt.Sprintf("sanitizer: %s", d))
	}

	m := MachineParamsFor(cfg)
	shapes := Shapes(launches)
	if err := vet.AnalyzePerf(rep, prog, m, shapes); err != nil {
		return nil, err
	}
	// Dominance: finite static cost bounds must cover the dynamic
	// counters of the primary run (plus the pre-existing -diff rows).
	res.Violations = append(res.Violations, Check(rep, s, prog.CARS)...)

	// The level study pins one kernel per workload; a workload that
	// launches several distinct kernels (PTA's two-phase pipeline) still
	// gets the dominance check above, but its ladder would conflate the
	// kernels' occupancy figures — reduce scope rather than fail.
	kernel := launches[0].Kernel
	for _, l := range launches {
		if l.Kernel != kernel {
			res.Reason = fmt.Sprintf("multi-kernel launch (%s, %s): dominance only, level study skipped", kernel, l.Kernel)
			return res, nil
		}
	}
	res.Kernel = kernel
	kr := rep.Kernel(kernel)
	if kr == nil || kr.Perf == nil || len(kr.Perf.Occupancy) == 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: no static occupancy rows", kernel))
		return res, nil
	}

	if !prog.CARS {
		// Non-CARS: a single "base" design point, already measured by
		// the primary run. Exactness is unconditional.
		row := kr.Perf.Occupancy[0]
		simPeak, sanPeak := peaks(s, sts, kernel)
		res.Levels = []LevelRun{{
			Level: row.Level, StaticWarps: row.ResidentWarps,
			SimWarps: simPeak, SanWarps: sanPeak, Cycles: sumCycles(sts),
		}}
		exactWarps(res, row.Level, row.ResidentWarps, simPeak, sanPeak)
		smemParity(res, row.Level, s, sts, kernel)
		if mode == abi.SharedSpill && prog.SmemSpillPerThread > 0 {
			// Zero-spill programs link under SharedSpill without a
			// frame: no lattice to study, the base row says it all.
			if err := backendStudy(ctx, res, w, prog, rep, kr, m, shapes[0], s, sts, regret); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	smemParity(res, "adaptive", s, sts, kernel)
	// CARS: pin the simulator to each ladder level in turn and hold the
	// model to exactness at every design point.
	plan, err := m.PlanFor(prog, shapes[0])
	if err != nil {
		return nil, err
	}
	if len(plan.Levels) != len(kr.Perf.Occupancy) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: plan has %d levels but the report has %d occupancy rows",
				kernel, len(plan.Levels), len(kr.Perf.Occupancy)))
		return res, nil
	}
	for i, lvl := range plan.Levels {
		fcfg := config.WithCARSPolicy(config.V100(), cars.ForcedPolicy(lvl))
		fs, _, fsts, err := runMeasured(ctx, prog, fcfg, w.Setup)
		if err != nil {
			return nil, fmt.Errorf("forced %s: %w", lvl.Name(), err)
		}
		for _, d := range fs.Diags() {
			res.Violations = append(res.Violations, fmt.Sprintf("forced %s: sanitizer: %s", lvl.Name(), d))
		}
		for _, v := range Check(rep, fs, true) {
			res.Violations = append(res.Violations, fmt.Sprintf("forced %s: %s", lvl.Name(), v))
		}
		row := kr.Perf.Occupancy[i]
		simPeak, sanPeak := peaks(fs, fsts, kernel)
		res.Levels = append(res.Levels, LevelRun{
			Level: row.Level, StackSlots: lvl.StackSlots, StaticWarps: row.ResidentWarps,
			SimWarps: simPeak, SanWarps: sanPeak, Cycles: sumCycles(fsts),
		})
		exactWarps(res, row.Level, row.ResidentWarps, simPeak, sanPeak)
		smemParity(res, "forced "+lvl.Name(), fs, fsts, kernel)
	}

	// Advisor regret: the recommended level, measured in cycles, may
	// lose to the best level by at most the regret threshold.
	adv := kr.Perf.Advice
	if adv == nil {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: CARS kernel has no advice", kernel))
		return res, nil
	}
	res.Advised = adv.Level
	best := res.Levels[0].Cycles
	for _, lr := range res.Levels[1:] {
		if lr.Cycles < best {
			best = lr.Cycles
		}
	}
	advised := res.Levels[adv.LevelIndex].Cycles
	if best > 0 {
		res.Regret = float64(advised)/float64(best) - 1
	}
	if res.Regret > regret {
		res.Violations = append(res.Violations,
			fmt.Sprintf("advisor picked %s (%d cycles) but the best level runs in %d cycles: regret %.2f exceeds %.2f",
				adv.Level, advised, best, res.Regret, regret))
	}
	if w.PerfExpect.AvoidHigh {
		highRow := kr.Perf.Occupancy[len(kr.Perf.Occupancy)-1]
		advRow := kr.Perf.Occupancy[adv.LevelIndex]
		if adv.Level == "High" {
			res.Violations = append(res.Violations,
				"expected the advisor to steer away from High, but it recommended High")
		}
		if highRow.ResidentWarps >= advRow.ResidentWarps {
			res.Violations = append(res.Violations,
				fmt.Sprintf("expected an occupancy cliff at High (%d warps) below the advised %s (%d warps)",
					highRow.ResidentWarps, adv.Level, advRow.ResidentWarps))
		}
	}
	// Mirror the ladder as the cars backend's lattice column.
	res.Backends = append(res.Backends, BackendRun{
		Backend: cars.BackendCARS.String(), Levels: res.Levels,
		Advised: adv.Level, Regret: res.Regret,
	})
	return res, nil
}

// kernelObsFor returns the sanitizer's per-kernel observation row, or
// nil when the kernel never started a warp.
func kernelObsFor(s *Sanitizer, kernel string) *KernelObs {
	obs := s.Observations()
	for i := range obs.Kernels {
		if obs.Kernels[i].Kernel == kernel {
			return &obs.Kernels[i]
		}
	}
	return nil
}

// smemParity holds the simulator's and the sanitizer's independently-
// accumulated shared-memory transaction and RF-cache hit counters to
// exact agreement for one measured run of a single kernel.
func smemParity(res *PerfResult, label string, s *Sanitizer, sts []*stats.Kernel, kernel string) {
	var simTxns, simHits uint64
	for _, st := range sts {
		simTxns += st.SmemTxns
		simHits += st.RFCacheHits
	}
	ko := kernelObsFor(s, kernel)
	var sanTxns, sanHits uint64
	if ko != nil {
		sanTxns, sanHits = ko.SmemTxns, ko.RFCacheHits
	}
	if simTxns != sanTxns {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: simulator counted %d shared transactions, sanitizer %d", label, simTxns, sanTxns))
	}
	if simHits != sanHits {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: simulator counted %d RF-cache hits, sanitizer %d", label, simHits, sanHits))
	}
}

// backendPerf finds one backend's lattice column in a kernel report.
func backendPerf(kr *vet.KernelReport, name string) *vet.BackendPerf {
	if kr.Perf == nil {
		return nil
	}
	for i := range kr.Perf.Backends {
		if kr.Perf.Backends[i].Backend == name {
			return &kr.Perf.Backends[i]
		}
	}
	return nil
}

// residDom holds one measured run to a backend level's residual
// traffic bounds: the per-warp unabsorbed spill bytes and bank
// transactions may not exceed the static residual at that level.
func residDom(res *PerfResult, label string, bl vet.BackendLevel, ko *KernelObs) {
	if ko == nil {
		return
	}
	if b := bl.SpillSmemBytes; b.Finite() && ko.MaxWarpSmemSpillBytes > uint64(b.Value) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: dynamic residual spill traffic %dB exceeds static bound %s",
				label, ko.MaxWarpSmemSpillBytes, b.Sym))
	}
	if b := bl.SmemTxns; b.Finite() && ko.MaxWarpSmemTxns > uint64(b.Value) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: dynamic shared transactions %d exceed static bound %s",
				label, ko.MaxWarpSmemTxns, b.Sym))
	}
}

// backendStudy runs the shared-spill mode's half of the lattice
// differential: the smem backend (the primary run, one design point)
// and the RF-cache window ladder, each window pinned in the simulator
// and held to dominance, occupancy exactness, counter parity, and —
// within the rfcache ladder — the advisor regret gate. The cross-
// backend advisor's pick is measured against the best cell and
// recorded (not gated) as CrossRegret.
func backendStudy(ctx context.Context, res *PerfResult, w *workloads.Workload, prog *isa.Program,
	rep *vet.ProgramReport, kr *vet.KernelReport, m vet.MachineParams, shape vet.LaunchShape,
	s *Sanitizer, sts []*stats.Kernel, regret float64) error {

	smemBP := backendPerf(kr, cars.BackendSmemSpill.String())
	rfcBP := backendPerf(kr, cars.BackendRFCache.String())
	if smemBP == nil || rfcBP == nil || len(smemBP.Levels) == 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: shared-spill program lacks backend lattice rows", kr.Kernel))
		return nil
	}

	// smem backend: the primary run is its single design point.
	smemRun := BackendRun{Backend: smemBP.Backend, Levels: []LevelRun{res.Levels[0]}}
	if adv := smemBP.Advice; adv != nil {
		smemRun.Advised = adv.Level
	}
	residDom(res, "smem base", smemBP.Levels[0], kernelObsFor(s, kr.Kernel))
	res.Backends = append(res.Backends, smemRun)

	// RF-cache backend: force every window of the very ladder vet
	// modelled and hold each cell to the full invariant set.
	plan, err := m.WindowPlanFor(prog, shape)
	if err != nil {
		return err
	}
	if len(plan.Levels) != len(rfcBP.Levels) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: window plan has %d levels but the report has %d rfcache rows",
				kr.Kernel, len(plan.Levels), len(rfcBP.Levels)))
		return nil
	}
	rfcRun := BackendRun{Backend: rfcBP.Backend}
	for i, lvl := range plan.Levels {
		label := "rfcache " + lvl.Name()
		fcfg := config.WithRFCache(config.V100(), lvl.StackSlots)
		fs, _, fsts, err := runMeasured(ctx, prog, fcfg, w.Setup)
		if err != nil {
			return fmt.Errorf("forced %s: %w", label, err)
		}
		for _, d := range fs.Diags() {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: sanitizer: %s", label, d))
		}
		for _, v := range Check(rep, fs, false) {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: %s", label, v))
		}
		bl := rfcBP.Levels[i]
		simPeak, sanPeak := peaks(fs, fsts, kr.Kernel)
		rfcRun.Levels = append(rfcRun.Levels, LevelRun{
			Level: bl.Level, StackSlots: lvl.StackSlots, StaticWarps: bl.ResidentWarps,
			SimWarps: simPeak, SanWarps: sanPeak, Cycles: sumCycles(fsts),
		})
		exactWarps(res, label, bl.ResidentWarps, simPeak, sanPeak)
		smemParity(res, label, fs, fsts, kr.Kernel)
		residDom(res, label, bl, kernelObsFor(fs, kr.Kernel))
	}
	if adv := rfcBP.Advice; adv != nil && adv.LevelIndex < len(rfcRun.Levels) {
		rfcRun.Advised = adv.Level
		best := rfcRun.Levels[0].Cycles
		for _, lr := range rfcRun.Levels[1:] {
			if lr.Cycles < best {
				best = lr.Cycles
			}
		}
		advised := rfcRun.Levels[adv.LevelIndex].Cycles
		if best > 0 {
			rfcRun.Regret = float64(advised)/float64(best) - 1
		}
		if rfcRun.Regret > regret {
			res.Violations = append(res.Violations,
				fmt.Sprintf("rfcache advisor picked %s (%d cycles) but the best window runs in %d cycles: regret %.2f exceeds %.2f",
					adv.Level, advised, best, rfcRun.Regret, regret))
		}
	}
	res.Backends = append(res.Backends, rfcRun)

	// Cross-backend advice over this mode's columns, measured and
	// recorded: the smem-mode lattice cannot include the cars cells
	// (a different ABI program), so the cross pick is only held up
	// against the cells measured here.
	for _, ca := range vet.CrossBackendAdvice(rep) {
		if ca.Kernel != kr.Kernel {
			continue
		}
		res.CrossBackend = ca.Backend + "/" + ca.Level
		cells := map[string]int64{smemBP.Backend + "/" + smemBP.Levels[0].Level: res.Levels[0].Cycles}
		for _, lr := range rfcRun.Levels {
			cells[rfcBP.Backend+"/"+lr.Level] = lr.Cycles
		}
		best := int64(-1)
		for _, c := range cells {
			if best < 0 || c < best {
				best = c
			}
		}
		if advised, ok := cells[res.CrossBackend]; ok && best > 0 {
			res.CrossRegret = float64(advised)/float64(best) - 1
		}
	}
	return nil
}

// exactWarps asserts the static occupancy model's exactness for one
// measured design point.
func exactWarps(res *PerfResult, level string, static, simPeak, sanPeak int) {
	if simPeak != static {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: simulator peaked at %d resident warps, model predicts %d", level, simPeak, static))
	}
	if sanPeak != static {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: sanitizer tracked %d resident warps, model predicts %d", level, sanPeak, static))
	}
}

// PerfDiffWorkloads runs the perf differential over the named
// workloads (all of Table I plus the perf-registry cases when names is
// empty) in every linkable ABI mode. It returns the per-run results
// and whether every run upheld the invariants.
func PerfDiffWorkloads(ctx context.Context, names []string, regret float64, out io.Writer) ([]*PerfResult, bool, error) {
	var list []*workloads.Workload
	if len(names) == 0 {
		list = append(list, workloads.All()...)
		list = append(list, workloads.PerfCases()...)
	} else {
		for _, n := range names {
			w, err := workloads.ByName(n)
			if err != nil {
				return nil, false, err
			}
			list = append(list, w)
		}
	}
	var results []*PerfResult
	ok := true
	for _, w := range list {
		for _, mode := range abi.Modes {
			res, err := PerfDiffWorkload(ctx, w, mode, regret)
			if err != nil {
				return results, false, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
			}
			results = append(results, res)
			switch {
			case res.Skipped:
				fmt.Fprintf(out, "skip %-16s %-9s (%s)\n", w.Name, res.Mode, res.Reason)
			case res.OK():
				fmt.Fprintf(out, "ok   %-16s %-9s %s\n", w.Name, res.Mode, perfSummary(res))
			default:
				ok = false
				fmt.Fprintf(out, "FAIL %-16s %-9s\n", w.Name, res.Mode)
				for _, v := range res.Violations {
					fmt.Fprintf(out, "     %s\n", v)
				}
			}
		}
	}
	return results, ok, nil
}

func perfSummary(res *PerfResult) string {
	if res.Advised != "" {
		return fmt.Sprintf("advice %s, regret %.2f, %d level(s)", res.Advised, res.Regret, len(res.Levels))
	}
	if len(res.Levels) == 1 {
		return fmt.Sprintf("base %d warps", res.Levels[0].StaticWarps)
	}
	if res.Reason != "" {
		return res.Reason
	}
	return ""
}
