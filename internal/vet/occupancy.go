package vet

import (
	"fmt"

	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
)

// Static occupancy model (DESIGN.md §9): for each CARS ladder level
// the resident-warp count the simulator's admission logic reaches,
// computed by the same cars.Machine admission model and cars.NewPlan
// ladder the runtime uses. vet cannot import internal/sim (abi imports
// vet for LinkStrict), so the machine limits arrive as a plain
// cars.Machine; internal/san converts a sim.Config.

// MachineParams are the occupancy-relevant machine limits plus whether
// the program runs under CARS.
type MachineParams struct {
	cars.Machine
	CARS bool `json:"cars"`
}

// LaunchShape is the occupancy-relevant part of one kernel launch.
type LaunchShape struct {
	Kernel      string `json:"kernel"`
	Grid        int    `json:"grid"`
	Block       int    `json:"block"`
	SharedBytes int    `json:"sharedBytes"`
}

// shapeOf is the admission model's view of a launch of p.
func shapeOf(p *isa.Program, l LaunchShape) cars.Shape {
	return cars.Shape{
		Dim:            isa.Dim3{Grid: l.Grid, Block: l.Block},
		SharedBytes:    l.SharedBytes,
		SpillPerThread: p.SmemSpillPerThread,
	}
}

// LevelOccupancy is the static occupancy at one ladder level (or, for
// non-CARS programs, at the baseline worst-case allocation — a single
// row with Level "base"). Its ResidentWarps is the exact peak the
// simulator reaches.
type LevelOccupancy struct {
	Level      string `json:"level"`
	StackSlots int    `json:"stackSlots"`
	cars.Occupancy
	LimitedBy string `json:"limitedBy"`
}

// KernelPerf is the perf analysis family's per-kernel result: the
// interprocedural cost bounds (always computed), and — when a launch
// shape is supplied to AnalyzePerf — the per-level occupancy model,
// the watermark advisor's recommendation, and the spill-policy
// backend lattice (backend.go).
type KernelPerf struct {
	Cost      CostReport       `json:"cost"`
	Occupancy []LevelOccupancy `json:"occupancy,omitempty"`
	Advice    *Advice          `json:"advice,omitempty"`
	Backends  []BackendPerf    `json:"backends,omitempty"`
	// Ranges aggregates the value-range/trip-count facts (range.go)
	// over the kernel's reachable call graph.
	Ranges *RangeReport `json:"ranges,omitempty"`
}

// levelAt is the occupancy row for one design point at one per-warp
// register demand; partial applies the CARS partial-admission rule.
func levelAt(m MachineParams, s cars.Shape, level string, stackSlots, regsPerWarp int, partial bool) LevelOccupancy {
	o := LevelOccupancy{Level: level, StackSlots: stackSlots, Occupancy: m.Occupancy(s, regsPerWarp, partial)}
	o.LimitedBy = o.Limiter()
	return o
}

// PlanFor builds the CARS level ladder AnalyzePerf models for one
// launch shape — exported so the dynamic differential (internal/san)
// can force the simulator through the very same ladder.
func (m MachineParams) PlanFor(p *isa.Program, l LaunchShape) (*cars.Plan, error) {
	an, err := callgraph.Analyze(p, l.Kernel)
	if err != nil {
		return nil, err
	}
	return cars.NewPlan(an, m.MaxWarpsOther(shapeOf(p, l)), m.RegFileSlots), nil
}

// AnalyzePerf attaches the occupancy model (and, for CARS programs,
// the watermark advice) to an existing report, one entry per launch
// shape. The cost bounds are already present: Report computes them
// for every kernel. A shape naming an unknown kernel is an error;
// later shapes for the same kernel overwrite earlier ones (the model
// describes one launch geometry at a time).
func AnalyzePerf(rep *ProgramReport, p *isa.Program, m MachineParams, shapes []LaunchShape) error {
	for _, shape := range shapes {
		kr := rep.Kernel(shape.Kernel)
		if kr == nil {
			return fmt.Errorf("vet: perf shape names unknown kernel %q", shape.Kernel)
		}
		if shape.Grid <= 0 || shape.Block <= 0 {
			return fmt.Errorf("vet: perf shape for %s has bad dims %d×%d", shape.Kernel, shape.Grid, shape.Block)
		}
		if kr.Perf == nil {
			kr.Perf = &KernelPerf{}
		}
		// Report analysed every kernel of p already; only a hand-built
		// report, or one paired with another program, needs a fresh
		// analysis.
		an := kr.graph
		if an == nil || an.Program != p {
			var err error
			if an, err = callgraph.Analyze(p, shape.Kernel); err != nil {
				return err
			}
		}
		s := shapeOf(p, shape)
		kr.Perf.Occupancy = kr.Perf.Occupancy[:0]
		if !m.CARS {
			o := levelAt(m, s, "base", 0, m.RoundRegs(an.MaxRegs), false)
			kr.Perf.Occupancy = append(kr.Perf.Occupancy, o)
			kr.Perf.Advice = nil
			analyzeBackends(kr, p, m, shape, an)
			continue
		}
		kernelBase := m.RoundRegs(an.KernelBase)
		plan := cars.NewPlan(an, m.MaxWarpsOther(s), m.RegFileSlots)
		for _, lvl := range plan.Levels {
			// As admitBlock does: round the combined demand so slack
			// lands in the register stack.
			o := levelAt(m, s, lvl.Name(), lvl.StackSlots, m.RoundRegs(kernelBase+lvl.StackSlots), true)
			kr.Perf.Occupancy = append(kr.Perf.Occupancy, o)
		}
		kr.Perf.Advice = advise(kr, plan)
		analyzeBackends(kr, p, m, shape, an)
	}
	return nil
}
