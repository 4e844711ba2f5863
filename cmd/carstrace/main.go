// Command carstrace captures and analyses dynamic instruction traces,
// standing in for the NVBit step of the paper's methodology (§V-A).
//
// Usage:
//
//	carstrace -w SSSP -o sssp.trace           # capture a trace
//	carstrace -analyze sssp.trace -w SSSP     # summarise it
//	carstrace -w SSSP                         # capture + summarise
//
// The -w flag is needed during analysis too so spill instructions can
// be classified against the program's code.
package main

import (
	"flag"
	"fmt"
	"os"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/sim"
	"carsgo/internal/trace"
	"carsgo/internal/workloads"
)

func main() {
	wname := flag.String("w", "", "workload to trace")
	out := flag.String("o", "", "write the captured trace to this file")
	analyze := flag.String("analyze", "", "analyse an existing trace file")
	useCARS := flag.Bool("cars", false, "trace the CARS configuration")
	capEvents := flag.Int("cap", 8_000_000, "max events to record (0 = unbounded)")
	flag.Parse()

	if *wname == "" {
		fmt.Fprintln(os.Stderr, "carstrace: -w <workload> required")
		os.Exit(2)
	}
	w, err := workloads.ByName(*wname)
	if err != nil {
		fail(err)
	}
	mode, cfg := abi.Baseline, config.V100()
	if *useCARS {
		mode, cfg = abi.CARS, config.WithCARS(config.V100())
	}
	prog, err := abi.Link(mode, w.Modules()...)
	if err != nil {
		fail(err)
	}

	var events []trace.Event
	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		events, err = trace.Read(f)
		if err != nil {
			fail(err)
		}
	} else {
		gpu, err := sim.New(cfg, prog)
		if err != nil {
			fail(err)
		}
		rec := &trace.Recorder{Cap: *capEvents}
		gpu.Trace = rec
		launches, err := w.Setup(gpu)
		if err != nil {
			fail(err)
		}
		for _, l := range launches {
			if _, err := gpu.Run(l); err != nil {
				fail(err)
			}
		}
		events = rec.Events
		if rec.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "carstrace: cap reached, dropped %d events\n", rec.Dropped)
		}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			if err := trace.Write(f, events); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			st, _ := os.Stat(*out)
			fmt.Printf("wrote %d events to %s (%.2f bytes/event)\n",
				len(events), *out, float64(st.Size())/float64(len(events)))
		}
	}

	sum := trace.Summarize(events, prog)
	fmt.Printf("%s (%s): %d warp-instructions, %d lane-instructions\n",
		w.Name, mode, sum.WarpInstructions, sum.LaneInstructions)
	fmt.Printf("  calls: %d (CPKI %.2f, paper %.2f), returns: %d, max depth: %d\n",
		sum.Calls, sum.CPKI, w.PaperCPKI, sum.Returns, sum.MaxCallDepth)
	fmt.Printf("  spill/fill instructions: %d (%.1f%% of stream)\n",
		sum.SpillFillInstr, 100*float64(sum.SpillFillInstr)/float64(sum.WarpInstructions))

	fmt.Println("  top opcodes:")
	for _, oc := range sum.TopOps(10) {
		fmt.Printf("    %-9s %10d (%.1f%%)\n", oc.Op, oc.N,
			100*float64(oc.N)/float64(sum.WarpInstructions))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "carstrace:", err)
	os.Exit(1)
}
