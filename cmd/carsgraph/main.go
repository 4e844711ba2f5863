// Command carsgraph dumps the link-time call-graph analysis CARS uses
// to size register stacks (§III-B): per-function FRU, MaxStackDepth,
// and the watermark allocation ladder — the paper's Fig. 4, computed
// for any of the repo's workloads. Kernels print in name order.
//
// Usage:
//
//	carsgraph -w MST            # every kernel in the workload
//	carsgraph -w PTA -disasm    # include SASS-style disassembly
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"carsgo/internal/abi"
	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/workloads"
)

func main() {
	wname := flag.String("w", "", "workload name")
	disasm := flag.Bool("disasm", false, "disassemble every function")
	flag.Parse()
	if *wname == "" {
		fmt.Fprintln(os.Stderr, "carsgraph: -w <workload> required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *wname, *disasm); err != nil {
		fmt.Fprintln(os.Stderr, "carsgraph:", err)
		os.Exit(1)
	}
}

// run writes the analysis and allocation ladder of every kernel of the
// named workload to w, then optionally every function's disassembly.
func run(w io.Writer, wname string, disasm bool) error {
	wl, err := workloads.ByName(wname)
	if err != nil {
		return err
	}
	prog, err := abi.Link(abi.CARS, wl.Modules()...)
	if err != nil {
		return err
	}
	cfg := config.V100()
	for _, kernel := range slices.Sorted(maps.Keys(prog.Kernels)) {
		a, err := callgraph.Analyze(prog, kernel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, a.String())
		plan := cars.NewPlan(a, cfg.MaxWarpsPerSM, cfg.RegFileSlots)
		fmt.Fprintf(w, "allocation ladder (base %d regs/warp):\n", plan.Base)
		for i, l := range plan.Levels {
			fmt.Fprintf(w, "  [%d] %-6s stack %3d slots -> %3d regs/warp\n",
				i, l.Name(), l.StackSlots, plan.RegsPerWarp(i))
		}
		if plan.HighFree {
			fmt.Fprintln(w, "  High-watermark costs no occupancy: all warps get High")
		}
		if plan.Cyclic {
			fmt.Fprintln(w, "  cyclic call graph: High assumes one recursion iteration (§III-C)")
		}
		fmt.Fprintln(w)
	}
	if disasm {
		for _, f := range prog.Funcs {
			fmt.Fprintln(w, f.Disassemble())
		}
	}
	return nil
}
