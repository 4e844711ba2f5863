package san

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/sim"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// This file is the static/dynamic differential harness: it runs a
// program under the shadow sanitizer and checks that internal/vet's
// static bounds dominate everything the machine actually did. A clean
// program must produce zero sanitizer diagnostics, and for every
// function and kernel the static worst case must be at least the
// observed dynamic maximum — if the dynamic machine ever exceeds a
// static bound, one of the two models is wrong.

// DiffResult is the outcome of one workload under one ABI mode.
type DiffResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// Skipped marks mode/workload pairs that legitimately cannot run:
	// recursion under the shared-spill ABI, or a spill frame too large
	// for shared memory. Reason says which.
	Skipped bool         `json:"skipped,omitempty"`
	Reason  string       `json:"reason,omitempty"`
	Diags   []Diag       `json:"diags,omitempty"`
	Obs     Observations `json:"obs"`
	// Violations lists dominance failures: places the dynamic machine
	// exceeded a static bound. Empty means the invariant held.
	Violations []string `json:"violations,omitempty"`
}

// OK reports whether the run upheld the differential invariant.
func (r *DiffResult) OK() bool {
	return r.Skipped || (len(r.Diags) == 0 && len(r.Violations) == 0)
}

// ConfigFor builds the simulator configuration matching an ABI mode.
func ConfigFor(mode abi.Mode) sim.Config {
	switch mode {
	case abi.CARS:
		return config.WithCARS(config.V100())
	case abi.SharedSpill:
		return config.WithSharedSpill(config.V100())
	default:
		return config.V100()
	}
}

// RunProgram executes the given launches on a fresh GPU with a shadow
// sanitizer attached and returns the sanitizer plus the vet report it
// was checked against. setup runs after GPU construction and before
// the launches (device-memory initialisation); it may be nil.
func RunProgram(ctx context.Context, prog *isa.Program, cfg sim.Config,
	setup func(g *sim.GPU) ([]isa.Launch, error)) (*Sanitizer, *vet.ProgramReport, error) {
	rep := vet.Report(prog)
	for _, d := range rep.Diags {
		if d.Sev >= vet.SevError {
			return nil, rep, fmt.Errorf("san: program does not vet: %s", d)
		}
	}
	return runVetted(ctx, prog, cfg, rep, setup)
}

// RunProgramUnvetted is RunProgram without the vet gate: the program
// runs even when the static verifier reports errors. The negative
// differential harness needs this — its workloads are broken on
// purpose, and the point is to watch the sanitizer catch them.
func RunProgramUnvetted(ctx context.Context, prog *isa.Program, cfg sim.Config,
	setup func(g *sim.GPU) ([]isa.Launch, error)) (*Sanitizer, *vet.ProgramReport, error) {
	return runVetted(ctx, prog, cfg, vet.Report(prog), setup)
}

func runVetted(ctx context.Context, prog *isa.Program, cfg sim.Config, rep *vet.ProgramReport,
	setup func(g *sim.GPU) ([]isa.Launch, error)) (*Sanitizer, *vet.ProgramReport, error) {
	g, err := sim.New(cfg, prog)
	if err != nil {
		return nil, rep, err
	}
	s := New(prog)
	g.San = s
	launches, err := setup(g)
	if err != nil {
		return nil, rep, err
	}
	for _, l := range launches {
		if _, err := g.RunContext(ctx, l); err != nil {
			return nil, rep, fmt.Errorf("san: launch %s: %w", l.Kernel, err)
		}
	}
	return s, rep, nil
}

// Check compares the sanitizer's dynamic observations against vet's
// static report and returns every dominance violation found.
func Check(rep *vet.ProgramReport, s *Sanitizer, cars bool) []string {
	var out []string
	obs := s.Observations()
	for _, fo := range obs.Funcs {
		fr := rep.Func(fo.Func)
		if fr == nil {
			out = append(out, fmt.Sprintf("%s: observed dynamically but absent from the static report", fo.Func))
			continue
		}
		if cars && fo.MaxStackDepth > fr.MaxStackDepth {
			out = append(out, fmt.Sprintf("%s: dynamic rename depth %d exceeds static MaxStackDepth %d",
				fo.Func, fo.MaxStackDepth, fr.MaxStackDepth))
		}
		if !cars && fr.SpillBytes >= 0 && fo.MaxSpillBytes > fr.SpillBytes {
			out = append(out, fmt.Sprintf("%s: dynamic spill traffic %dB exceeds static SpillBytes %dB",
				fo.Func, fo.MaxSpillBytes, fr.SpillBytes))
		}
		// Cost dominance, per activation: a finite static bound on the
		// function body must cover the largest count any single
		// activation produced. Symbolic/unbounded bounds assert nothing.
		if c := fr.Cost; c != nil {
			costDom(&out, fo.Func, "spill stores", c.SpillStores, uint64(fo.MaxSpillStores))
			costDom(&out, fo.Func, "spill fills", c.SpillFills, uint64(fo.MaxSpillFills))
			costDom(&out, fo.Func, "local traffic", c.LocalBytes, uint64(fo.MaxLocalBytes))
			costDom(&out, fo.Func, "shared traffic", c.SharedBytes, uint64(fo.MaxSharedBytes))
		}
	}
	for _, ko := range obs.Kernels {
		kr := rep.Kernel(ko.Kernel)
		if kr == nil {
			if cars {
				out = append(out, fmt.Sprintf("%s: kernel observed dynamically but absent from the static report", ko.Kernel))
			}
			continue
		}
		if kr.StackSlots >= 0 && ko.MaxRSP > kr.StackSlots {
			out = append(out, fmt.Sprintf("%s: dynamic MaxRSP %d exceeds static stack demand %d",
				ko.Kernel, ko.MaxRSP, kr.StackSlots))
		}
		if !kr.TrapReachable && ko.TrapSpillSlots > 0 {
			out = append(out, fmt.Sprintf("%s: vet proved the spill trap unreachable but it spilled %d slot(s)",
				ko.Kernel, ko.TrapSpillSlots))
		}
		if kr.BarrierSafe && ko.BarrierDivergences > 0 {
			out = append(out, fmt.Sprintf("%s: vet proved every barrier convergent but the sanitizer saw %d divergent arrival(s)",
				ko.Kernel, ko.BarrierDivergences))
		}
		if kr.RaceFree && ko.SharedRaces > 0 {
			out = append(out, fmt.Sprintf("%s: vet proved the kernel race-free but the sanitizer saw %d shared-memory race(s)",
				ko.Kernel, ko.SharedRaces))
		}
		// Interprocedural cost dominance: the kernel bound covers one
		// warp's whole activation, callees included.
		if kr.Perf != nil {
			c := kr.Perf.Cost
			costDom(&out, kr.Kernel, "warp spill stores", c.SpillStores, ko.MaxWarpSpillStores)
			costDom(&out, kr.Kernel, "warp spill fills", c.SpillFills, ko.MaxWarpSpillFills)
			costDom(&out, kr.Kernel, "warp local traffic", c.LocalBytes, ko.MaxWarpLocalBytes)
			costDom(&out, kr.Kernel, "warp shared traffic", c.SharedBytes, ko.MaxWarpSharedBytes)
			costDom(&out, kr.Kernel, "warp shared transactions", c.SharedTxns, ko.MaxWarpSmemTxns)
		}
	}
	sort.Strings(out)
	return out
}

// costDom appends a violation when a finite static cost bound is
// exceeded by the observed dynamic count.
func costDom(out *[]string, who, metric string, b vet.CostBound, dyn uint64) {
	if b.Finite() && dyn > uint64(b.Value) {
		*out = append(*out, fmt.Sprintf("%s: dynamic %s %d exceeds static bound %s",
			who, metric, dyn, b.Sym))
	}
}

// RunWorkload runs one built-in workload under one ABI mode with the
// sanitizer attached and checks the differential invariant.
func RunWorkload(ctx context.Context, w *workloads.Workload, mode abi.Mode) (*DiffResult, error) {
	res := &DiffResult{Workload: w.Name, Mode: mode.String()}
	prog, err := abi.Link(mode, w.Modules()...)
	if err != nil {
		if errors.Is(err, abi.ErrRecursive) {
			// Recursive workloads cannot compile under the shared-spill
			// ABI; the rejection is the expected behaviour.
			res.Skipped = true
			res.Reason = "recursive call graph"
			return res, nil
		}
		return nil, err
	}
	s, rep, err := RunProgram(ctx, prog, ConfigFor(mode), w.Setup)
	if err != nil {
		if errors.Is(err, sim.ErrNoFit) {
			// The static shared-spill frame is too large for the target
			// SM. The program is rejected by capacity, not by the ABI.
			res.Skipped = true
			res.Reason = "shared-spill frame exceeds shared memory"
			return res, nil
		}
		return nil, err
	}
	res.Diags = s.Diags()
	res.Obs = s.Observations()
	res.Violations = Check(rep, s, prog.CARS)
	return res, nil
}

// DiffWorkloads runs the differential harness over the named workloads
// (all of them when names is empty) in every linkable ABI mode,
// reporting progress to out (which may be io.Discard). It returns the
// per-run results and whether every run upheld the invariant.
func DiffWorkloads(ctx context.Context, names []string, out io.Writer) ([]*DiffResult, bool, error) {
	var list []*workloads.Workload
	if len(names) == 0 {
		list = workloads.All()
	} else {
		for _, n := range names {
			w, err := workloads.ByName(n)
			if err != nil {
				return nil, false, err
			}
			list = append(list, w)
		}
	}
	var results []*DiffResult
	ok := true
	for _, w := range list {
		for _, mode := range abi.Modes {
			res, err := RunWorkload(ctx, w, mode)
			if err != nil {
				return results, false, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
			}
			results = append(results, res)
			switch {
			case res.Skipped:
				fmt.Fprintf(out, "skip %-14s %-9s (%s)\n", w.Name, res.Mode, res.Reason)
			case res.OK():
				fmt.Fprintf(out, "ok   %-14s %-9s\n", w.Name, res.Mode)
			default:
				ok = false
				fmt.Fprintf(out, "FAIL %-14s %-9s\n", w.Name, res.Mode)
				for _, d := range res.Diags {
					fmt.Fprintf(out, "     %s [%s pc=%d]\n", d, d.Func, d.PC)
				}
				for _, v := range res.Violations {
					fmt.Fprintf(out, "     dominance: %s\n", v)
				}
			}
		}
	}
	return results, ok, nil
}

// DiffNegatives runs the deliberately-broken workloads
// (workloads.Negatives) in every linkable ABI mode and checks both
// directions of the differential: each expected defect must be flagged
// by the static verifier AND observed by the sanitizer, while the
// clean counterparts must pass both sides. It returns per-run results
// and whether every expectation held.
func DiffNegatives(ctx context.Context, out io.Writer) ([]*DiffResult, bool, error) {
	var results []*DiffResult
	ok := true
	for _, w := range workloads.Negatives() {
		for _, mode := range abi.Modes {
			res := &DiffResult{Workload: w.Name, Mode: mode.String()}
			prog, err := abi.Link(mode, w.Modules()...)
			if err != nil {
				return results, false, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
			}
			s, rep, err := RunProgramUnvetted(ctx, prog, ConfigFor(mode), w.Setup)
			if err != nil {
				return results, false, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
			}
			res.Diags = s.Diags()
			res.Obs = s.Observations()

			staticUnsafeBarrier, staticRacy := false, false
			for _, kr := range rep.Kernels {
				if !kr.BarrierSafe {
					staticUnsafeBarrier = true
				}
				if !kr.RaceFree {
					staticRacy = true
				}
			}
			var dynBarrier, dynRace uint64
			for _, ko := range res.Obs.Kernels {
				dynBarrier += ko.BarrierDivergences
				dynRace += ko.SharedRaces
			}
			expect := func(cond bool, format string, args ...any) {
				if !cond {
					res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
				}
			}
			if w.Expect.SharedRace {
				expect(staticRacy, "expected the static verifier to report a shared-memory race")
				expect(dynRace > 0, "expected the sanitizer to observe a shared-memory race")
			} else {
				expect(!staticRacy, "clean workload reported statically racy")
				expect(dynRace == 0, "clean workload raced dynamically (%d event(s))", dynRace)
			}
			if w.Expect.BarrierDivergence {
				expect(staticUnsafeBarrier, "expected the static verifier to report barrier divergence")
				expect(dynBarrier > 0, "expected the sanitizer to observe a divergent barrier arrival")
			} else {
				expect(!staticUnsafeBarrier, "clean workload reported statically barrier-unsafe")
				expect(dynBarrier == 0, "clean workload diverged at a barrier dynamically (%d event(s))", dynBarrier)
			}
			// Expected sanitizer diagnostics are not failures here; the
			// clean counterparts must still be diagnostic-free.
			clean := !w.Expect.SharedRace && !w.Expect.BarrierDivergence
			if clean {
				res.Violations = append(res.Violations, Check(rep, s, prog.CARS)...)
				if len(res.Diags) > 0 {
					ok = false
				}
			} else {
				res.Diags = nil // reported via the expectations above
			}
			if len(res.Violations) > 0 {
				ok = false
			}
			results = append(results, res)
			status := "ok  "
			if len(res.Violations) > 0 || (clean && len(res.Diags) > 0) {
				status = "FAIL"
			}
			fmt.Fprintf(out, "%s %-18s %-9s\n", status, w.Name, res.Mode)
			for _, v := range res.Violations {
				fmt.Fprintf(out, "     expectation: %s\n", v)
			}
		}
	}
	return results, ok, nil
}

// SmokeLaunch builds a minimal launch for a program's first kernel
// (alphabetically): one block of 64 threads with zeroed parameters.
// It gives file-based inputs to carsvet -diff and the sanitizer tests
// something to execute without a workload-specific setup.
func SmokeLaunch(prog *isa.Program) (isa.Launch, error) {
	var kernels []string
	for name := range prog.Kernels {
		kernels = append(kernels, name)
	}
	if len(kernels) == 0 {
		return isa.Launch{}, fmt.Errorf("san: program has no kernels")
	}
	sort.Strings(kernels)
	return isa.Launch{
		Kernel: kernels[0],
		Dim:    isa.Dim3{Grid: 1, Block: 64},
		Params: make([]uint32, 8),
	}, nil
}
