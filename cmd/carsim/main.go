// Command carsim runs one of the paper's workloads on one configuration
// and prints its statistics.
//
// Usage:
//
//	carsim -w MST                 # baseline V100
//	carsim -w MST -config cars    # V100 + CARS
//	carsim -w PTA -config 10mb -v
//	carsim -w FIB -config cars -san
//	carsim -w MST -config cars -occupancy   # static occupancy per ladder level
//	carsim -spec my.json -config cars   # declarative workload spec
//	carsim -list                  # workload names
//
// Configurations: base, cars, ideal, 10mb, allhit, swl<N>, 3070,
// 3070cars, lto.
//
// -san runs the workload with the internal/san shadow sanitizer
// attached and checks the static/dynamic dominance invariant instead
// of printing performance statistics; exit status 1 on any finding.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/mem"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/stats"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

func pickConfig(name string) (carsgo.Config, bool, error) {
	return config.Named(name)
}

func main() {
	wname := flag.String("w", "", "workload name (see -list)")
	specPath := flag.String("spec", "", "declarative workload spec file (internal/spec JSON) instead of -w")
	cname := flag.String("config", "base", "configuration")
	list := flag.Bool("list", false, "list workloads and exit")
	verbose := flag.Bool("v", false, "print per-launch stats")
	occupancy := flag.Bool("occupancy", false, "print the static occupancy rows per launch shape and exit")
	sanitize := flag.Bool("san", false, "run under the shadow sanitizer and check static/dynamic dominance")
	timeout := flag.Duration("timeout", 0, "kill the simulation after this long (0 = no limit)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-13s %-10s depth=%-2d cpki=%-6.2f %s\n",
				w.Name, w.Suite, w.PaperCallDepth, w.PaperCPKI, w.SpeedupFactor)
		}
		return
	}
	if (*wname == "") == (*specPath == "") {
		fmt.Fprintln(os.Stderr, "carsim: exactly one of -w <workload> (-list to enumerate) or -spec <file> required")
		os.Exit(2)
	}
	var w *workloads.Workload
	var err error
	if *specPath != "" {
		s, serr := spec.Load(*specPath)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "carsim:", serr)
			os.Exit(1)
		}
		w = workloads.FromSpec(s)
	} else if w, err = carsgo.Workload(*wname); err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	cfg, lto, err := pickConfig(*cname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	if *occupancy {
		if err := printOccupancy(os.Stdout, w, cfg, lto); err != nil {
			fmt.Fprintln(os.Stderr, "carsim:", err)
			os.Exit(1)
		}
		return
	}
	if *sanitize {
		runSanitized(ctx, w, cfg, lto)
		return
	}
	var res *carsgo.Result
	if lto {
		res, err = carsgo.RunLTOContext(ctx, cfg, w)
	} else {
		res, err = carsgo.RunContext(ctx, cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	printStats(w, cfg, &res.Stats, res.EnergyNJ)
	if *verbose {
		for _, st := range res.PerLaunch {
			fmt.Printf("\n-- launch %s --\n", st.Name)
			printStats(w, cfg, st, 0)
		}
	}
}

// runSanitized executes the workload with the shadow sanitizer
// attached and reports any dynamic ABI violation or static-bound
// dominance failure.
func runSanitized(ctx context.Context, w *workloads.Workload, cfg carsgo.Config, lto bool) {
	prog, err := carsgo.Compile(cfg, w.Modules(), lto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	s, rep, err := san.RunProgram(ctx, prog, cfg, w.Setup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	diags := s.Diags()
	violations := san.Check(rep, s, prog.CARS)
	for _, d := range diags {
		fmt.Printf("sanitizer: %s [%s pc=%d]\n", d, d.Func, d.PC)
	}
	for _, v := range violations {
		fmt.Printf("dominance: %s\n", v)
	}
	if len(diags) > 0 || len(violations) > 0 {
		os.Exit(1)
	}
	obs := s.Observations()
	fmt.Printf("%s on %s: sanitizer silent, static bounds dominate (%d functions, %d kernels observed)\n",
		w.Name, cfg.Name, len(obs.Funcs), len(obs.Kernels))
}

// printOccupancy prints, for every distinct launch shape of the
// workload, vet's static occupancy rows for the configuration: the
// baseline allocation, or for CARS configs every watermark ladder
// level. Each row's resident warps is the opening-wave residency the
// simulator measures for that launch.
func printOccupancy(out io.Writer, w *workloads.Workload, cfg carsgo.Config, lto bool) error {
	prog, err := carsgo.Compile(cfg, w.Modules(), lto)
	if err != nil {
		return err
	}
	gpu, err := carsgo.NewGPU(cfg, prog)
	if err != nil {
		return err
	}
	launches, err := w.Setup(gpu)
	if err != nil {
		return err
	}
	rep := vet.Report(prog)
	seen := map[vet.LaunchShape]bool{}
	for _, shape := range san.Shapes(launches) {
		if seen[shape] {
			continue
		}
		seen[shape] = true
		if err := vet.AnalyzePerf(rep, prog, san.MachineParamsFor(cfg), []vet.LaunchShape{shape}); err != nil {
			return err
		}
		fmt.Fprintln(out, shapeHeader(shape))
		for _, o := range rep.Kernel(shape.Kernel).Perf.Occupancy {
			partial := ""
			if o.Partial {
				partial = ", partial"
			}
			fmt.Fprintf(out, "  %-6s stack %3d, %3d regs/warp: blocks by threads %d, slots %d, smem %s, regs %d -> %d blocks (%d warps), %d resident warps, limited by %s%s\n",
				o.Level, o.StackSlots, o.RegsPerWarp, o.BlocksByThreads, o.BlocksBySlots,
				smemStr(o.BlocksBySmem), o.BlocksByRegs, o.Blocks, o.Warps, o.ResidentWarps, o.LimitedBy, partial)
		}
	}
	return nil
}

// shapeHeader names one launch shape in the -occupancy output.
func shapeHeader(s vet.LaunchShape) string {
	return fmt.Sprintf("%s: grid %d x %d threads, %dB shared", s.Kernel, s.Grid, s.Block, s.SharedBytes)
}

func smemStr(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func printStats(w *workloads.Workload, cfg carsgo.Config, st *stats.Kernel, energyNJ float64) {
	fmt.Printf("%s on %s\n", w.Name, cfg.Name)
	fmt.Printf("  cycles:            %d\n", st.Cycles)
	fmt.Printf("  warp instructions: %d (CPKI %.2f, paper %.2f)\n",
		st.TotalInstructions(), st.CPKI(), w.PaperCPKI)
	fmt.Printf("  max call depth:    %d (paper %d)\n", st.MaxCallDepth, w.PaperCallDepth)
	t := st.L1D.TotalAccesses()
	if t > 0 {
		fmt.Printf("  L1D accesses:      %d (%.1f%% spill/fill, %.1f%% global, %.1f%% other local)\n",
			t,
			100*float64(st.L1D.Accesses[mem.ClassLocalSpill])/float64(t),
			100*float64(st.L1D.Accesses[mem.ClassGlobal])/float64(t),
			100*float64(st.L1D.Accesses[mem.ClassLocalOther])/float64(t))
	}
	fmt.Printf("  L1D MPKI:          %.2f\n", st.MPKI())
	fmt.Printf("  DRAM sectors:      %d\n", st.DRAMSectors)
	if st.TrapCalls > 0 || st.ContextSwitches > 0 {
		fmt.Printf("  CARS traps:        %d calls (%.3f%%), %d slots spilled, %d filled\n",
			st.TrapCalls, 100*float64(st.TrapCalls)/float64(st.Calls),
			st.TrapSpillSlots, st.TrapFillSlots)
		fmt.Printf("  context switches:  %d (%d slots)\n", st.ContextSwitches, st.CtxSwitchSlots)
	}
	if len(st.CARSLevels) > 0 {
		fmt.Printf("  allocation levels: %v\n", st.CARSLevels)
	}
	if energyNJ > 0 {
		fmt.Printf("  energy:            %.1f µJ\n", energyNJ/1000)
	}
}
