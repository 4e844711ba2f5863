package san

import (
	"context"
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

// Diff runs the unit under the sanitizer and checks that vet's static
// bounds dominate what it observed. It does not gate on vet: a file
// run through carsvet -diff may be broken on purpose.
func (u *Unit) Diff(ctx context.Context) (*DiffResult, error) {
	res := &DiffResult{Workload: u.W.Name, Mode: u.Mode.String()}
	r, err := u.Run(ctx, u.Cfg)
	if err != nil {
		return nil, err
	}
	if r == nil {
		res.Skipped, res.Reason = true, u.Skip
		return res, nil
	}
	res.Diags = r.San.Diags()
	res.Obs = r.San.Observations()
	res.Violations = Check(u.Rep, r.San, u.Prog.CARS)
	return res, nil
}

// details lists a failed result's sanitizer diagnostics and dominance
// violations, one line each.
func (r *DiffResult) details() []string {
	var out []string
	for _, d := range r.Diags {
		out = append(out, fmt.Sprintf("%s [%s pc=%d]", d, d.Func, d.PC))
	}
	for _, v := range r.Violations {
		out = append(out, "dominance: "+v)
	}
	return out
}

// DiffWorkloads runs the differential harness over list in every ABI
// mode, vet-gated, printing each result's line to out (which may be
// io.Discard). It returns the results and whether every run upheld the
// invariant.
func DiffWorkloads(ctx context.Context, list []*workloads.Workload, out io.Writer) ([]*DiffResult, bool, error) {
	return Drive(list, func(w *workloads.Workload, mode abi.Mode) (*DiffResult, error) {
		u, err := Link(w, mode)
		if err != nil {
			return nil, err
		}
		if err := u.Vetted(); err != nil {
			return nil, err
		}
		return u.Diff(ctx)
	}, func(res *DiffResult) {
		line(out, 14, res.Workload, res.Mode, res.Reason, res.OK(), "", res.details()...)
	})
}

// DiffNegatives runs the deliberately-broken workloads
// (workloads.Negatives) in every ABI mode, without the vet gate, and
// checks both directions of the differential: each expected defect
// must be flagged by the static verifier AND observed by the
// sanitizer, while the clean counterparts must pass both sides. It
// returns per-run results and whether every expectation held.
func DiffNegatives(ctx context.Context, out io.Writer) ([]*DiffResult, bool, error) {
	return Drive(workloads.Negatives(), func(w *workloads.Workload, mode abi.Mode) (*DiffResult, error) {
		u, err := Link(w, mode)
		if err != nil {
			return nil, err
		}
		res, err := u.Diff(ctx)
		if err != nil || res.Skipped {
			return res, err
		}
		dominance := res.Violations
		res.Violations = nil
		staticUnsafeBarrier, staticRacy := false, false
		for _, kr := range u.Rep.Kernels {
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
		// clean counterparts must still be diagnostic-free and keep
		// their dominance.
		if !w.Expect.SharedRace && !w.Expect.BarrierDivergence {
			res.Violations = append(res.Violations, dominance...)
		} else {
			res.Diags = nil // reported via the expectations above
		}
		return res, nil
	}, func(res *DiffResult) {
		var details []string
		for _, v := range res.Violations {
			details = append(details, "expectation: "+v)
		}
		line(out, 18, res.Workload, res.Mode, "", res.OK(), "", details...)
	})
}

// SmokeLaunch builds a minimal launch for a program's first kernel
// (alphabetically): one block of 64 threads with zeroed parameters.
// It is the setup of a Smoke workload, so file-based inputs to carsvet
// -diff and -perf have something to execute.
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
