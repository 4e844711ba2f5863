package main

import (
	"context"
	"fmt"
	"runtime/metrics"

	"carsgo"
	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/power"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/workloads"
)

// simAllocs accumulates the heap allocations made inside
// GPU.RunContext, read from runtime/metrics around each launch.
type simAllocs struct {
	objects, bytes uint64
	sample         []metrics.Sample
}

func newSimAllocs() *simAllocs {
	return &simAllocs{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (a *simAllocs) read() (objects, bytes uint64) {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64(), a.sample[1].Value.Uint64()
}

// simulate is carsgo.RunContext taken apart into its exported calls, so
// that each runs inside its own span: lowering (lowerSpan), compile,
// device construction, workload setup, every launch and the energy
// model. The oracle holds its result to the same digest as
// carsgo.RunContext's. allocs, when non-nil, accumulates the launches'
// heap allocations.
func simulate(ctx context.Context, tr *tracer, parent int, lowerSpan string, cfg carsgo.Config, w *workloads.Workload, allocs *simAllocs) (*carsgo.Result, []isa.Launch, error) {
	var mods []*kir.Module
	tr.timed(lowerSpan, parent, func() { mods = w.Modules() })
	var prog *isa.Program
	var err error
	tr.timed("abi.compile", parent, func() { prog, err = carsgo.Compile(cfg, mods, false) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", cfg.Name, w.Name, err)
	}
	var gpu *sim.GPU
	tr.timed("sim.new", parent, func() { gpu, err = carsgo.NewGPU(cfg, prog) })
	if err != nil {
		return nil, nil, err
	}
	var launches []isa.Launch
	tr.timed("workloads.setup", parent, func() { launches, err = w.Setup(gpu) })
	if err != nil {
		return nil, nil, err
	}
	res := &carsgo.Result{Config: cfg.Name, Workload: w.Name}
	res.Stats.Name = w.Name
	for _, l := range launches {
		var o0, b0 uint64
		if allocs != nil {
			o0, b0 = allocs.read()
		}
		var st *stats.Kernel
		tr.timed("sim.run", parent, func() { st, err = gpu.RunContext(ctx, l) })
		if allocs != nil {
			o1, b1 := allocs.read()
			allocs.objects += o1 - o0
			allocs.bytes += b1 - b0
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s kernel %s: %w", cfg.Name, w.Name, l.Kernel, err)
		}
		res.PerLaunch = append(res.PerLaunch, st)
		res.Stats.Merge(st)
	}
	res.Output = w.Output(gpu)
	tr.timed("power.energy", parent, func() {
		res.EnergyNJ = power.NewModel(cfg.NumSMs).Energy(&res.Stats).TotalNJ()
	})
	return res, launches, nil
}

// planLaunches times the link-time analyses the simulator runs per
// launch — callgraph.Analyze, and cars.NewPlan on CARS configurations —
// standalone, as root spans of their own.
func planLaunches(tr *tracer, cfg carsgo.Config, w *workloads.Workload, launches []isa.Launch) error {
	prog, err := carsgo.Compile(cfg, w.Modules(), false)
	if err != nil {
		return err
	}
	for _, l := range launches {
		var an *callgraph.Analysis
		tr.timed("callgraph.analyze", -1, func() { an, err = callgraph.Analyze(prog, l.Kernel) })
		if err != nil {
			return err
		}
		if cfg.CARSEnabled {
			tr.timed("cars.plan", -1, func() { cars.NewPlan(an, cfg.MaxWarpsPerSM, cfg.RegFileSlots) })
		}
	}
	return nil
}

// kernelCounts are exact simulated statistics summed over results.
type kernelCounts struct {
	cycles, winstr, trapCalls, trapSlots uint64
	l1dAccesses, l1dMisses, l2Accesses   uint64
	dramSectors                          uint64
}

func (c *kernelCounts) add(k *stats.Kernel) {
	c.cycles += uint64(k.Cycles)
	c.winstr += k.TotalInstructions()
	c.trapCalls += k.TrapCalls
	c.trapSlots += k.TrapSpillSlots + k.TrapFillSlots
	c.l1dAccesses += k.L1D.TotalAccesses()
	for _, m := range k.L1D.Misses {
		c.l1dMisses += m
	}
	c.l2Accesses += k.L2.TotalAccesses()
	c.dramSectors += k.DRAMSectors
}

func (c *kernelCounts) layers(into map[string]float64) {
	into["sim.cycles"] = float64(c.cycles)
	into["sim.winstr"] = float64(c.winstr)
	into["cars.trap_calls"] = float64(c.trapCalls)
	into["cars.trap_slots"] = float64(c.trapSlots)
	into["mem.l2_accesses"] = float64(c.l2Accesses)
	into["mem.dram_sectors"] = float64(c.dramSectors)
	if c.winstr > 0 {
		into["mem.l1d_accesses_per_winstr"] = float64(c.l1dAccesses) / float64(c.winstr)
	}
	if c.l1dAccesses > 0 {
		into["mem.l1d_miss_rate"] = float64(c.l1dMisses) / float64(c.l1dAccesses)
	}
}
