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

// peaks returns the opening-wave resident-warp counts of one measured
// run: the simulator's own statistic and the sanitizer's independently-
// tracked admit/exit bookkeeping for the given kernel.
func peaks(r *Run, kernel string) (sim, san int) {
	for _, st := range r.Stats {
		if st.ResidentWarps > sim {
			sim = st.ResidentWarps
		}
	}
	if ko := kernelObsFor(r.San, kernel); ko != nil {
		san = ko.ResidentWarps
	}
	return sim, san
}

// PerfDiff runs the perf differential on the unit, vet-gated: it plans
// the unit, runs it once under its own machine, and walks the forced
// ladder of every design point a single-kernel unit has.
func (u *Unit) PerfDiff(ctx context.Context, regret float64) (*PerfResult, error) {
	res := &PerfResult{Workload: u.W.Name, Mode: u.Mode.String()}
	if err := u.Vetted(); err != nil {
		return nil, err
	}
	shapes, err := u.Plan()
	if err != nil {
		return nil, err
	}
	r, err := u.Run(ctx, u.Cfg)
	if err != nil {
		return nil, err
	}
	if r == nil {
		res.Skipped, res.Reason = true, u.Skip
		return res, nil
	}
	for _, d := range r.San.Diags() {
		res.Violations = append(res.Violations, fmt.Sprintf("sanitizer: %s", d))
	}
	// Dominance: finite static cost bounds must cover the dynamic
	// counters of the primary run (plus the pre-existing -diff rows).
	res.Violations = append(res.Violations, Check(u.Rep, r.San, u.Prog.CARS)...)

	// The level study pins one kernel per workload; a workload that
	// launches several distinct kernels (PTA's two-phase pipeline) still
	// gets the dominance check above, but its ladder would conflate the
	// kernels' occupancy figures — reduce scope rather than fail.
	kernel := r.Launches[0].Kernel
	for _, l := range r.Launches {
		if l.Kernel != kernel {
			res.Reason = fmt.Sprintf("multi-kernel launch (%s, %s): dominance only, level study skipped", kernel, l.Kernel)
			return res, nil
		}
	}
	res.Kernel = kernel
	kr := u.Rep.Kernel(kernel)
	if kr == nil || kr.Perf == nil || len(kr.Perf.Occupancy) == 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: no static occupancy rows", kernel))
		return res, nil
	}

	m := MachineParamsFor(u.Cfg)
	if !u.Prog.CARS {
		// Non-CARS: a single "base" design point, already measured by
		// the primary run. Exactness is unconditional.
		row := kr.Perf.Occupancy[0]
		base := LevelRun{Level: row.Level, StaticWarps: row.ResidentWarps, Cycles: r.Cycles()}
		base.SimWarps, base.SanWarps = peaks(r, kernel)
		res.Levels = []LevelRun{base}
		exactWarps(res, row.Level, row.ResidentWarps, base.SimWarps, base.SanWarps)
		smemParity(res, row.Level, r, kernel)
		if u.Mode == abi.SharedSpill && u.Prog.SmemSpillPerThread > 0 {
			// Zero-spill programs link under SharedSpill without a
			// frame: no lattice to study, the base row says it all.
			if err := u.backendStudy(ctx, res, kr, m, shapes[0], r, regret); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	smemParity(res, "adaptive", r, kernel)
	// CARS: pin the simulator to each ladder level in turn and hold the
	// model to exactness at every design point.
	plan, err := m.PlanFor(u.Prog, shapes[0])
	if err != nil {
		return nil, err
	}
	if len(plan.Levels) != len(kr.Perf.Occupancy) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: plan has %d levels but the report has %d occupancy rows",
				kernel, len(plan.Levels), len(kr.Perf.Occupancy)))
		return res, nil
	}
	rungs := make([]rung, len(plan.Levels))
	for i, lvl := range plan.Levels {
		row := kr.Perf.Occupancy[i]
		rungs[i] = rung{label: "forced " + lvl.Name(), exact: row.Level,
			cfg: config.WithCARSPolicy(config.V100(), cars.ForcedPolicy(lvl)),
			row: LevelRun{Level: row.Level, StackSlots: lvl.StackSlots, StaticWarps: row.ResidentWarps}}
	}
	if res.Levels, err = u.ladder(ctx, res, kernel, rungs); err != nil {
		return nil, err
	}

	// Advisor regret: the recommended level, measured in cycles, may
	// lose to the best level by at most the regret threshold.
	adv := kr.Perf.Advice
	if adv == nil {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: CARS kernel has no advice", kernel))
		return res, nil
	}
	res.Advised = adv.Level
	res.Regret = gateRegret(res, "", "level", adv, res.Levels, regret)
	if u.W.PerfExpect.AvoidHigh {
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

// rung is one forced design point of a ladder: the machine it runs on
// and the static half of its level row.
type rung struct {
	label string // prefixes the rung's violations
	exact string // names the rung in exactness violations
	cfg   sim.Config
	row   LevelRun
	// resid holds the residual traffic bounds of an RF-cache window.
	resid *vet.BackendLevel
}

// ladder runs the unit on every rung of a forced ladder, holds each run
// to dominance, occupancy exactness, counter parity and any residual
// bound, and returns the measured levels.
func (u *Unit) ladder(ctx context.Context, res *PerfResult, kernel string, rungs []rung) ([]LevelRun, error) {
	levels := make([]LevelRun, 0, len(rungs))
	for _, g := range rungs {
		r, err := u.Run(ctx, g.cfg)
		if err == nil && r == nil {
			err = errors.New(u.Skip)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.label, err)
		}
		for _, d := range r.San.Diags() {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: sanitizer: %s", g.label, d))
		}
		for _, v := range Check(u.Rep, r.San, u.Prog.CARS) {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: %s", g.label, v))
		}
		lr := g.row
		lr.SimWarps, lr.SanWarps = peaks(r, kernel)
		lr.Cycles = r.Cycles()
		levels = append(levels, lr)
		exactWarps(res, g.exact, lr.StaticWarps, lr.SimWarps, lr.SanWarps)
		smemParity(res, g.label, r, kernel)
		if g.resid != nil {
			residDom(res, g.label, *g.resid, kernelObsFor(r.San, kernel))
		}
	}
	return levels, nil
}

// overshoot is the measured regret of levels[advised] over the best of
// levels: cycles(advised)/min(cycles) - 1, zero when advised wins.
func overshoot(levels []LevelRun, advised int) (best int64, r float64) {
	best = levels[0].Cycles
	for _, lr := range levels[1:] {
		best = min(best, lr.Cycles)
	}
	if best > 0 {
		r = float64(levels[advised].Cycles)/float64(best) - 1
	}
	return best, r
}

// gateRegret returns the advised level's regret within its ladder and
// records a violation when it exceeds the threshold.
func gateRegret(res *PerfResult, ladder, unit string, adv *vet.Advice, levels []LevelRun, threshold float64) float64 {
	best, r := overshoot(levels, adv.LevelIndex)
	if r > threshold {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%sadvisor picked %s (%d cycles) but the best %s runs in %d cycles: regret %.2f exceeds %.2f",
				ladder, adv.Level, levels[adv.LevelIndex].Cycles, unit, best, r, threshold))
	}
	return r
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
func smemParity(res *PerfResult, label string, r *Run, kernel string) {
	var simTxns, simHits uint64
	for _, st := range r.Stats {
		simTxns += st.SmemTxns
		simHits += st.RFCacheHits
	}
	ko := kernelObsFor(r.San, kernel)
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
// differential: the smem backend (the primary run r, one design point)
// and the RF-cache window ladder, each window pinned in the simulator
// and held to dominance, occupancy exactness, counter parity, and —
// within the rfcache ladder — the advisor regret gate. The cross-
// backend advisor's pick is measured against the best cell and
// recorded (not gated) as CrossRegret.
func (u *Unit) backendStudy(ctx context.Context, res *PerfResult, kr *vet.KernelReport, m vet.MachineParams,
	shape vet.LaunchShape, r *Run, regret float64) error {

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
	residDom(res, "smem base", smemBP.Levels[0], kernelObsFor(r.San, kr.Kernel))
	res.Backends = append(res.Backends, smemRun)

	// RF-cache backend: force every window of the very ladder vet
	// modelled and hold each cell to the full invariant set.
	plan, err := m.WindowPlanFor(u.Prog, shape)
	if err != nil {
		return err
	}
	if len(plan.Levels) != len(rfcBP.Levels) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: window plan has %d levels but the report has %d rfcache rows",
				kr.Kernel, len(plan.Levels), len(rfcBP.Levels)))
		return nil
	}
	rungs := make([]rung, len(plan.Levels))
	for i, lvl := range plan.Levels {
		bl := &rfcBP.Levels[i]
		label := "rfcache " + lvl.Name()
		rungs[i] = rung{label: label, exact: label,
			cfg: config.WithRFCache(config.V100(), lvl.StackSlots),
			row: LevelRun{Level: bl.Level, StackSlots: lvl.StackSlots, StaticWarps: bl.ResidentWarps}, resid: bl}
	}
	rfcRun := BackendRun{Backend: rfcBP.Backend}
	if rfcRun.Levels, err = u.ladder(ctx, res, kr.Kernel, rungs); err != nil {
		return err
	}
	if adv := rfcBP.Advice; adv != nil && adv.LevelIndex < len(rfcRun.Levels) {
		rfcRun.Advised = adv.Level
		rfcRun.Regret = gateRegret(res, "rfcache ", "window", adv, rfcRun.Levels, regret)
	}
	res.Backends = append(res.Backends, rfcRun)

	// Cross-backend advice over this mode's columns, measured and
	// recorded: the smem-mode lattice cannot include the cars cells
	// (a different ABI program), so the cross pick is only held up
	// against the cells measured here.
	for _, ca := range vet.CrossBackendAdvice(u.Rep) {
		if ca.Kernel != kr.Kernel {
			continue
		}
		res.CrossBackend = ca.Backend + "/" + ca.Level
		cells := []LevelRun{{Level: smemBP.Backend + "/" + smemBP.Levels[0].Level, Cycles: res.Levels[0].Cycles}}
		for _, lr := range rfcRun.Levels {
			cells = append(cells, LevelRun{Level: rfcBP.Backend + "/" + lr.Level, Cycles: lr.Cycles})
		}
		for i, c := range cells {
			if c.Level == res.CrossBackend {
				_, res.CrossRegret = overshoot(cells, i)
			}
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

// PerfDiffWorkloads runs the perf differential over list in every ABI
// mode, printing each result's line to out. It returns the results and
// whether every run upheld the invariants.
func PerfDiffWorkloads(ctx context.Context, list []*workloads.Workload, regret float64, out io.Writer) ([]*PerfResult, bool, error) {
	return Drive(list, func(w *workloads.Workload, mode abi.Mode) (*PerfResult, error) {
		u, err := Link(w, mode)
		if err != nil {
			return nil, err
		}
		return u.PerfDiff(ctx, regret)
	}, func(res *PerfResult) {
		skip := ""
		if res.Skipped {
			skip = res.Reason
		}
		line(out, 16, res.Workload, res.Mode, skip, res.OK(), " "+perfSummary(res), res.Violations...)
	})
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
