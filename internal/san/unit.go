package san

import (
	"context"
	"errors"
	"fmt"
	"io"

	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// This file is the one harness path: every differential, CLI and
// exhibit that links, plans or runs a workload goes through a Unit —
// one workload linked under one ABI mode — and its three operations.
// Plan attaches vet's perf analysis for the launch shapes Setup
// produces on an unstarted GPU; Run executes every launch on a fresh
// GPU with the sanitizer attached; Drive loops workloads × modes and
// prints each result's skip/ok/FAIL line. What differs between callers
// — the vet gate, the machine a ladder level runs on — stays with
// them.

// The two reasons a workload × mode pair cannot run.
const (
	skipRecursive = "recursive call graph"
	skipNoFit     = "shared-spill frame exceeds shared memory"
)

// Unit is one workload linked under one ABI mode.
type Unit struct {
	// W supplies the launches (Setup) and the output region.
	W    *workloads.Workload
	Mode abi.Mode
	// Cfg is the machine the unit plans and runs on.
	Cfg  sim.Config
	Prog *isa.Program
	Rep  *vet.ProgramReport
	// Skip says why the pair cannot run, "" when it can: the
	// shared-spill ABI rejects recursion (Link leaves Prog nil), or a
	// block needs more shared memory than an SM has (Plan or Run finds
	// it, by sim.Fit).
	Skip string
}

// Link links w's modules under mode for ConfigFor(mode), or mods in
// their place: the optimized set of the same workload.
func Link(w *workloads.Workload, mode abi.Mode, mods ...*kir.Module) (*Unit, error) {
	if len(mods) == 0 {
		mods = w.Modules()
	}
	prog, err := abi.Link(mode, mods...)
	if errors.Is(err, abi.ErrRecursive) {
		return &Unit{W: w, Mode: mode, Cfg: ConfigFor(mode), Skip: skipRecursive}, nil
	}
	if err != nil {
		return nil, err
	}
	return NewUnit(w, mode, ConfigFor(mode), prog), nil
}

// NewUnit wraps a program already linked under mode for cfg and vets
// it. A Smoke workload gets a small global memory.
func NewUnit(w *workloads.Workload, mode abi.Mode, cfg sim.Config, prog *isa.Program) *Unit {
	if w.Suite == smokeSuite {
		cfg.GlobalMemWords = 1 << 16 // a smoke launch touches almost nothing
	}
	return &Unit{W: w, Mode: mode, Cfg: cfg, Prog: prog, Rep: vet.Report(prog)}
}

const smokeSuite = "smoke"

// Smoke wraps modules read from a file as a workload whose one launch
// is SmokeLaunch's, so files run without a workload-specific setup.
func Smoke(name string, mods ...*kir.Module) *workloads.Workload {
	return &workloads.Workload{
		Name:    name,
		Suite:   smokeSuite,
		Modules: func() []*kir.Module { return mods },
		Setup: func(g *sim.GPU) ([]isa.Launch, error) {
			l, err := SmokeLaunch(g.Prog)
			if err != nil {
				return nil, err
			}
			return []isa.Launch{l}, nil
		},
	}
}

// Vetted is the vet gate: it fails on the report's first
// error-severity diagnostic.
func (u *Unit) Vetted() error {
	if u.Rep == nil {
		return nil
	}
	for _, d := range u.Rep.Diags {
		if d.Sev >= vet.SevError {
			return fmt.Errorf("san: program does not vet: %s", d)
		}
	}
	return nil
}

// Shapes reads the unit's launch shapes off an unstarted GPU: Setup
// runs and no kernel does. A launch whose block cannot fit marks the
// unit skipped.
func (u *Unit) Shapes() ([]vet.LaunchShape, error) {
	if u.Prog == nil {
		return nil, nil
	}
	g, err := sim.New(u.Cfg, u.Prog)
	if err != nil {
		return nil, err
	}
	launches, err := u.W.Setup(g)
	if err != nil {
		return nil, err
	}
	u.fit(u.Cfg, launches)
	return Shapes(launches), nil
}

// fit marks the unit skipped when a launch's block cannot fit in
// cfg's shared memory.
func (u *Unit) fit(cfg sim.Config, launches []isa.Launch) {
	for _, l := range launches {
		if _, err := sim.Fit(cfg, u.Prog, l); err != nil {
			u.Skip = skipNoFit
		}
	}
}

// Plan attaches vet's perf analysis (cost bounds, occupancy rows,
// advice, the backend lattice) to the unit's report for its own launch
// shapes, and returns them. A unit whose block cannot fit is analysed
// all the same: the static model still describes it.
func (u *Unit) Plan() ([]vet.LaunchShape, error) {
	shapes, err := u.Shapes()
	if err != nil || u.Prog == nil {
		return nil, err
	}
	return shapes, vet.AnalyzePerf(u.Rep, u.Prog, MachineParamsFor(u.Cfg), shapes)
}

// Run is one execution of a unit.
type Run struct {
	San      *Sanitizer
	Launches []isa.Launch
	Stats    []*stats.Kernel // one per launch
	Output   []uint32
}

// Run executes the unit on a fresh GPU of cfg — the unit's own, or a
// ladder level's — with the sanitizer attached: Setup, then every
// launch in order. It returns no run and no error when the unit cannot
// run; Skip says why.
func (u *Unit) Run(ctx context.Context, cfg sim.Config) (*Run, error) {
	if u.Skip != "" {
		return nil, nil
	}
	g, err := sim.New(cfg, u.Prog)
	if err != nil {
		return nil, err
	}
	r := &Run{San: New(u.Prog)}
	g.San = r.San
	if r.Launches, err = u.W.Setup(g); err != nil {
		return nil, err
	}
	if u.fit(cfg, r.Launches); u.Skip != "" {
		return nil, nil
	}
	for _, l := range r.Launches {
		st, err := g.RunContext(ctx, l)
		if err != nil {
			return nil, fmt.Errorf("san: launch %s: %w", l.Kernel, err)
		}
		r.Stats = append(r.Stats, st)
	}
	r.Output = u.W.Output(g)
	return r, nil
}

// Cycles is the run's simulated cycles over every launch.
func (r *Run) Cycles() int64 {
	var total int64
	for _, st := range r.Stats {
		total += st.Cycles
	}
	return total
}

// Select resolves workload names; no names selects all.
func Select(names []string, all []*workloads.Workload) ([]*workloads.Workload, error) {
	if len(names) == 0 {
		return all, nil
	}
	list := make([]*workloads.Workload, 0, len(names))
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		list = append(list, w)
	}
	return list, nil
}

// Drive is the harnesses' one workloads × ABI modes loop: it checks
// every pair of list in order, prints each result (print may be nil)
// and reports whether every result held. An error stops the loop,
// wrapped with the pair that raised it.
func Drive[R interface{ OK() bool }](list []*workloads.Workload, check func(*workloads.Workload, abi.Mode) (R, error),
	print func(R)) ([]R, bool, error) {
	var results []R
	ok := true
	for _, w := range list {
		for _, mode := range abi.Modes {
			res, err := check(w, mode)
			if err != nil {
				return results, false, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
			}
			results = append(results, res)
			ok = ok && res.OK()
			if print != nil {
				print(res)
			}
		}
	}
	return results, ok, nil
}

// line prints one result's status line, the workload padded to width:
// skip with its reason, ok followed by tail, or FAIL followed by each
// detail on its own indented line.
func line(out io.Writer, width int, workload, mode, skip string, ok bool, tail string, details ...string) {
	switch {
	case skip != "":
		fmt.Fprintf(out, "skip %-*s %-9s (%s)\n", width, workload, mode, skip)
	case ok:
		fmt.Fprintf(out, "ok   %-*s %-9s%s\n", width, workload, mode, tail)
	default:
		fmt.Fprintf(out, "FAIL %-*s %-9s\n", width, workload, mode)
		for _, d := range details {
			fmt.Fprintf(out, "     %s\n", d)
		}
	}
}
