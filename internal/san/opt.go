package san

import (
	"context"
	"errors"
	"fmt"
	"io"

	"carsgo/internal/abi"
	"carsgo/internal/kir"
	"carsgo/internal/opt"
	"carsgo/internal/sim"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// This file is the optimize→simulate differential: the soundness
// oracle for internal/opt's certificate-carrying rewrites. For every
// workload × ABI mode it links and runs both the original and the
// optimized modules and requires
//
//   - bit-identical output regions (the rewrites must be semantically
//     invisible — cycles may differ, results may not);
//   - a clean sanitizer and an intact static/dynamic dominance
//     invariant on the optimized program (the optimized code must
//     still satisfy its own recomputed vet report);
//   - a non-degrading static report: every finite bound vet proved
//     about the original (stack depth, spill bytes, cost polynomials)
//     must still be finite and no larger for the optimized program.
//
// A failure names the certificates applied, so a lying static fact is
// directly attributable.

// OptDiffResult is the outcome of one workload under one ABI mode.
type OptDiffResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Skipped  bool   `json:"skipped,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Certs are the rewrites the optimizer applied (empty = the
	// differential degenerates to running the same program twice).
	Certs []opt.Certificate `json:"certs,omitempty"`
	// Failures lists every broken oracle clause. Empty = invariant held.
	Failures []string `json:"failures,omitempty"`
	// Simulated effort on both sides, for reporting (not an oracle:
	// occupancy changes legitimately move cycle counts in either
	// direction; instruction counts are checked separately).
	CyclesOrig int64  `json:"cyclesOrig"`
	CyclesOpt  int64  `json:"cyclesOpt"`
	InstrOrig  uint64 `json:"instrOrig"`
	InstrOpt   uint64 `json:"instrOpt"`
}

// OK reports whether the run upheld the oracle.
func (r *OptDiffResult) OK() bool {
	return r.Skipped || len(r.Failures) == 0
}

// optRun holds one side's execution artifacts.
type optRun struct {
	rep    *vet.ProgramReport
	out    []uint32
	cycles int64
	instr  uint64
	san    *Sanitizer
	cars   bool
}

// runSide links, vets, and runs one module set, collecting the output
// region and the sanitizer observations.
func runSide(ctx context.Context, w *workloads.Workload, mode abi.Mode, mods []*kir.Module) (*optRun, error) {
	prog, err := abi.Link(mode, mods...)
	if err != nil {
		return nil, err
	}
	cfg := ConfigFor(mode)
	rep := vet.Report(prog)
	for _, d := range rep.Diags {
		if d.Sev >= vet.SevError {
			return nil, fmt.Errorf("program does not vet: %s", d)
		}
	}
	g, err := sim.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	s := New(prog)
	g.San = s
	launches, err := w.Setup(g)
	if err != nil {
		return nil, err
	}
	r := &optRun{rep: rep, san: s, cars: prog.CARS}
	for _, l := range launches {
		st, err := g.RunContext(ctx, l)
		if err != nil {
			return nil, fmt.Errorf("launch %s: %w", l.Kernel, err)
		}
		r.cycles += st.Cycles
		r.instr += st.TotalInstructions()
	}
	r.out = w.Output(g)
	return r, nil
}

// OptDiffWorkload runs the optimize→simulate differential for one
// workload under one ABI mode.
func OptDiffWorkload(ctx context.Context, w *workloads.Workload, mode abi.Mode) (*OptDiffResult, error) {
	res := &OptDiffResult{Workload: w.Name, Mode: mode.String()}
	mods := w.Modules()
	optMods, certs, err := opt.OptimizeAll(mods...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Certs = certs

	orig, err := runSide(ctx, w, mode, mods)
	if err != nil {
		if errors.Is(err, abi.ErrRecursive) {
			res.Skipped, res.Reason = true, "recursive call graph"
			return res, nil
		}
		if errors.Is(err, sim.ErrNoFit) {
			res.Skipped, res.Reason = true, "shared-spill frame exceeds shared memory"
			return res, nil
		}
		return nil, fmt.Errorf("%s/%s original: %w", w.Name, mode, err)
	}
	optd, err := runSide(ctx, w, mode, optMods)
	if err != nil {
		// The original ran; the optimized program failing to link or
		// run at all is itself an oracle failure.
		res.Failures = append(res.Failures, fmt.Sprintf("optimized program failed: %v", err))
		return res, nil
	}
	res.CyclesOrig, res.CyclesOpt = orig.cycles, optd.cycles
	res.InstrOrig, res.InstrOpt = orig.instr, optd.instr

	// Clause 1: bit-identical outputs.
	if len(orig.out) != len(optd.out) {
		res.Failures = append(res.Failures,
			fmt.Sprintf("output region size differs: %d vs %d words", len(orig.out), len(optd.out)))
	} else {
		for i := range orig.out {
			if orig.out[i] != optd.out[i] {
				res.Failures = append(res.Failures,
					fmt.Sprintf("output word %d differs: %#x (original) vs %#x (optimized)",
						i, orig.out[i], optd.out[i]))
				break
			}
		}
	}

	// Clause 2: the optimized program is clean under its own recomputed
	// report — sanitizer silent, dominance intact.
	for _, d := range optd.san.Diags() {
		res.Failures = append(res.Failures, fmt.Sprintf("optimized sanitizer: %s", d))
	}
	for _, v := range Check(optd.rep, optd.san, optd.cars) {
		res.Failures = append(res.Failures, fmt.Sprintf("optimized dominance: %s", v))
	}

	// Clause 3: the static report must not degrade.
	res.Failures = append(res.Failures, vetNonDegrading(orig.rep, optd.rep)...)

	return res, nil
}

// vetNonDegrading compares the optimized program's static report
// against the original's: every finite bound must stay finite and
// monotonically ≤, and every proven synchronization verdict must stay
// proven.
func vetNonDegrading(orig, optd *vet.ProgramReport) []string {
	var out []string
	for i := range optd.Funcs {
		nf := &optd.Funcs[i]
		of := orig.Func(nf.Func)
		if of == nil {
			out = append(out, fmt.Sprintf("vet degraded: function %s appeared from nowhere", nf.Func))
			continue
		}
		if nf.MaxStackDepth > of.MaxStackDepth {
			out = append(out, fmt.Sprintf("vet degraded: %s MaxStackDepth %d > %d", nf.Func, nf.MaxStackDepth, of.MaxStackDepth))
		}
		if of.SpillBytes >= 0 && (nf.SpillBytes < 0 || nf.SpillBytes > of.SpillBytes) {
			out = append(out, fmt.Sprintf("vet degraded: %s SpillBytes %d > %d", nf.Func, nf.SpillBytes, of.SpillBytes))
		}
		if of.Cost != nil && nf.Cost != nil {
			boundMono(&out, nf.Func+" spill stores", of.Cost.SpillStores, nf.Cost.SpillStores)
			boundMono(&out, nf.Func+" spill fills", of.Cost.SpillFills, nf.Cost.SpillFills)
			boundMono(&out, nf.Func+" local bytes", of.Cost.LocalBytes, nf.Cost.LocalBytes)
			boundMono(&out, nf.Func+" shared bytes", of.Cost.SharedBytes, nf.Cost.SharedBytes)
		}
	}
	for i := range optd.Kernels {
		nk := &optd.Kernels[i]
		ok := orig.Kernel(nk.Kernel)
		if ok == nil {
			continue
		}
		if ok.StackSlots >= 0 && (nk.StackSlots < 0 || nk.StackSlots > ok.StackSlots) {
			out = append(out, fmt.Sprintf("vet degraded: %s StackSlots %d > %d", nk.Kernel, nk.StackSlots, ok.StackSlots))
		}
		if !ok.TrapReachable && nk.TrapReachable {
			out = append(out, fmt.Sprintf("vet degraded: %s spill trap became reachable", nk.Kernel))
		}
		if ok.BarrierSafe && !nk.BarrierSafe {
			out = append(out, fmt.Sprintf("vet degraded: %s lost BarrierSafe", nk.Kernel))
		}
		if ok.RaceFree && !nk.RaceFree {
			out = append(out, fmt.Sprintf("vet degraded: %s lost RaceFree", nk.Kernel))
		}
		if ok.Perf != nil && nk.Perf != nil {
			boundMono(&out, nk.Kernel+" warp spill stores", ok.Perf.Cost.SpillStores, nk.Perf.Cost.SpillStores)
			boundMono(&out, nk.Kernel+" warp spill fills", ok.Perf.Cost.SpillFills, nk.Perf.Cost.SpillFills)
			boundMono(&out, nk.Kernel+" warp local bytes", ok.Perf.Cost.LocalBytes, nk.Perf.Cost.LocalBytes)
			boundMono(&out, nk.Kernel+" warp shared bytes", ok.Perf.Cost.SharedBytes, nk.Perf.Cost.SharedBytes)
		}
	}
	return out
}

func boundMono(out *[]string, what string, orig, optd vet.CostBound) {
	if orig.Finite() && (!optd.Finite() || optd.Value > orig.Value) {
		*out = append(*out, fmt.Sprintf("vet degraded: %s bound %s > %s", what, optd.Sym, orig.Sym))
	}
}

// OptDiffWorkloads runs the optimize→simulate differential over the
// named workloads (all of them when names is empty) in every ABI mode.
func OptDiffWorkloads(ctx context.Context, names []string, out io.Writer) ([]*OptDiffResult, bool, error) {
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
	var results []*OptDiffResult
	ok := true
	for _, w := range list {
		for _, mode := range abi.Modes {
			res, err := OptDiffWorkload(ctx, w, mode)
			if err != nil {
				return results, false, err
			}
			results = append(results, res)
			switch {
			case res.Skipped:
				fmt.Fprintf(out, "skip %-14s %-9s (%s)\n", w.Name, res.Mode, res.Reason)
			case res.OK():
				fmt.Fprintf(out, "ok   %-14s %-9s %3d cert(s)  cycles %d→%d\n",
					w.Name, res.Mode, len(res.Certs), res.CyclesOrig, res.CyclesOpt)
			default:
				ok = false
				fmt.Fprintf(out, "FAIL %-14s %-9s\n", w.Name, res.Mode)
				for _, f := range res.Failures {
					fmt.Fprintf(out, "     %s\n", f)
				}
				for _, c := range res.Certs {
					fmt.Fprintf(out, "     applied: %s\n", c)
				}
			}
		}
	}
	return results, ok, nil
}
