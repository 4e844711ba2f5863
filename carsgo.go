// Package carsgo reproduces "Concurrency-Aware Register Stacks for
// Efficient GPU Function Calls" (MICRO 2024) as a self-contained Go
// library: a functional + cycle-level GPU simulator, the GPU function-
// calling ABI with baseline spill/fill lowering, the CARS register-stack
// mechanism, the paper's 22 workloads, and a harness regenerating every
// table and figure in the evaluation.
//
// Quick start:
//
//	w, _ := carsgo.Workload("MST")
//	base, _ := carsgo.Run(carsgo.Baseline(), w)
//	crs, _ := carsgo.Run(carsgo.CARS(), w)
//	fmt.Printf("speedup %.2fx\n", float64(base.Stats.Cycles)/float64(crs.Stats.Cycles))
//
// Custom kernels are authored with internal/kir builders, lowered by
// internal/abi, and run on internal/sim; see examples/quickstart.
package carsgo

import (
	"context"
	"fmt"

	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/power"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// Config is a simulated GPU configuration.
type Config = sim.Config

// Result is the outcome of running a workload on one configuration.
type Result struct {
	Config   string
	Workload string
	// Stats aggregates every kernel launch the application performed.
	Stats stats.Kernel
	// PerLaunch holds each launch's individual stats.
	PerLaunch []*stats.Kernel
	// Output is the workload's result region, for cross-configuration
	// equivalence checks.
	Output []uint32
	// EnergyNJ is the total energy from the AccelWattch-style model.
	EnergyNJ float64
}

// Speedup returns base-cycles / r-cycles.
func (r *Result) Speedup(base *Result) float64 {
	return float64(base.Stats.Cycles) / float64(r.Stats.Cycles)
}

// EnergyEfficiency returns base-energy / r-energy (Fig. 15's metric).
func (r *Result) EnergyEfficiency(base *Result) float64 {
	return base.EnergyNJ / r.EnergyNJ
}

// Baseline returns the V100 baseline configuration.
func Baseline() Config { return config.V100() }

// CARS returns the V100 with CARS enabled (adaptive allocation).
func CARS() Config { return config.WithCARS(config.V100()) }

// CARSForced returns the V100 with CARS pinned to one allocation level.
func CARSForced(level cars.Level) Config {
	return config.WithCARSPolicy(config.V100(), cars.ForcedPolicy(level))
}

// Workload looks up one of the paper's 22 applications by Table I name.
func Workload(name string) (*workloads.Workload, error) { return workloads.ByName(name) }

// Workloads returns all 22 applications in Table I order.
func Workloads() []*workloads.Workload { return workloads.All() }

// Run executes a workload on a configuration. The ABI mode follows the
// configuration: CARS-enabled configs compile with push/pop renaming,
// others with baseline spills/fills. Set lto to compile fully inlined.
func Run(cfg Config, w *workloads.Workload) (*Result, error) {
	return run(context.Background(), cfg, w, false)
}

// RunContext is Run with a deadline/cancellation context: the
// simulator polls ctx cooperatively and abandons a cancelled launch
// with a structured *sim.CancelError (errors.Is-compatible with the
// context error) instead of running to completion.
func RunContext(ctx context.Context, cfg Config, w *workloads.Workload) (*Result, error) {
	return run(ctx, cfg, w, false)
}

// RunLTO executes a workload compiled with full link-time inlining
// (Fig. 16's comparison point). The configuration must not enable CARS.
func RunLTO(cfg Config, w *workloads.Workload) (*Result, error) {
	return run(context.Background(), cfg, w, true)
}

// RunLTOContext is RunLTO with a deadline/cancellation context.
func RunLTOContext(ctx context.Context, cfg Config, w *workloads.Workload) (*Result, error) {
	return run(ctx, cfg, w, true)
}

func run(ctx context.Context, cfg Config, w *workloads.Workload, lto bool) (*Result, error) {
	prog, err := Compile(cfg, w.Modules(), lto)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", cfg.Name, w.Name, err)
	}
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	launches, err := w.Setup(gpu)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg.Name, Workload: w.Name}
	res.Stats.Name = w.Name
	for _, l := range launches {
		st, err := gpu.RunContext(ctx, l)
		if err != nil {
			return nil, fmt.Errorf("%s/%s kernel %s: %w", cfg.Name, w.Name, l.Kernel, err)
		}
		res.PerLaunch = append(res.PerLaunch, st)
		res.Stats.Merge(st)
	}
	res.Output = w.Output(gpu)
	res.EnergyNJ = power.NewModel(cfg.NumSMs).Energy(&res.Stats).TotalNJ()
	return res, nil
}

// Compile links a workload's modules for the configuration (Link) and
// runs the static verifier over the result, as abi.LinkStrict does: a
// program with vet errors never reaches the simulator.
func Compile(cfg Config, modules []*kir.Module, lto bool) (*isa.Program, error) {
	prog, err := Link(cfg, modules, lto)
	if err != nil {
		return nil, err
	}
	if err := abi.Verified(vet.Program(prog)); err != nil {
		return nil, err
	}
	return prog, nil
}

// Link links a workload's modules under the configuration's ABI mode
// (Mode), or with lto every call inlined first and the result linked
// baseline. It does not vet the program: a report on a broken program
// is an answer too.
func Link(cfg Config, modules []*kir.Module, lto bool) (*isa.Program, error) {
	if !lto {
		return abi.Link(Mode(cfg), modules...)
	}
	if cfg.CARSEnabled {
		return nil, fmt.Errorf("carsgo: LTO and CARS are separate configurations")
	}
	// A practical -maxrregcount-style budget: the inlined kernel must
	// still be launchable at reasonable occupancy.
	flat, err := abi.InlineAllBudget(128, modules...)
	if err != nil {
		return nil, err
	}
	return abi.Link(abi.Baseline, flat)
}

// Mode is the ABI mode a configuration's programs link under.
func Mode(cfg Config) abi.Mode {
	switch {
	case cfg.CARSEnabled:
		return abi.CARS
	case cfg.SharedSpillABI:
		return abi.SharedSpill
	}
	return abi.Baseline
}

// NewGPU builds a simulator for a custom program (see examples).
func NewGPU(cfg Config, prog *isa.Program) (*sim.GPU, error) { return sim.New(cfg, prog) }
