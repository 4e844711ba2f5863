package san

import (
	"context"
	"errors"
	"fmt"
	"io"

	"carsgo/internal/abi"
	"carsgo/internal/kir"
	"carsgo/internal/opt"
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

// OptDiff is one workload's optimize→simulate differential: its
// modules and their optimized set, optimized once (the optimizer does
// not depend on the ABI mode) and shared by every mode's run.
type OptDiff struct {
	w             *workloads.Workload
	mods, optMods []*kir.Module
	certs         []opt.Certificate
}

// NewOptDiff optimizes w's modules.
func NewOptDiff(w *workloads.Workload) (*OptDiff, error) {
	d := &OptDiff{w: w, mods: w.Modules()}
	var err error
	if d.optMods, d.certs, err = opt.OptimizeAll(d.mods...); err != nil {
		return nil, err
	}
	return d, nil
}

// Run runs the differential under one ABI mode: the original modules
// and the optimized ones are each a unit of the workload, vet-gated
// and run.
func (d *OptDiff) Run(ctx context.Context, mode abi.Mode) (*OptDiffResult, error) {
	w := d.w
	res := &OptDiffResult{Workload: w.Name, Mode: mode.String(), Certs: d.certs}
	side := func(mods []*kir.Module) (*Unit, *Run, error) {
		u, err := Link(w, mode, mods...)
		if err != nil {
			return nil, nil, err
		}
		if err := u.Vetted(); err != nil {
			return nil, nil, err
		}
		r, err := u.Run(ctx, u.Cfg)
		return u, r, err
	}
	orig, origRun, err := side(d.mods)
	if err != nil {
		return nil, fmt.Errorf("original: %w", err)
	}
	if origRun == nil {
		res.Skipped, res.Reason = true, orig.Skip
		return res, nil
	}
	optd, optRun, err := side(d.optMods)
	if err == nil && optRun == nil {
		err = errors.New(optd.Skip)
	}
	if err != nil {
		// The original ran; the optimized program failing to link or
		// run at all is itself an oracle failure.
		res.Failures = append(res.Failures, fmt.Sprintf("optimized program failed: %v", err))
		return res, nil
	}
	res.CyclesOrig, res.CyclesOpt = origRun.Cycles(), optRun.Cycles()
	for _, st := range origRun.Stats {
		res.InstrOrig += st.TotalInstructions()
	}
	for _, st := range optRun.Stats {
		res.InstrOpt += st.TotalInstructions()
	}

	// Clause 1: bit-identical outputs.
	if len(origRun.Output) != len(optRun.Output) {
		res.Failures = append(res.Failures,
			fmt.Sprintf("output region size differs: %d vs %d words", len(origRun.Output), len(optRun.Output)))
	} else {
		for i := range origRun.Output {
			if origRun.Output[i] != optRun.Output[i] {
				res.Failures = append(res.Failures,
					fmt.Sprintf("output word %d differs: %#x (original) vs %#x (optimized)",
						i, origRun.Output[i], optRun.Output[i]))
				break
			}
		}
	}

	// Clause 2: the optimized program is clean under its own recomputed
	// report — sanitizer silent, dominance intact.
	for _, d := range optRun.San.Diags() {
		res.Failures = append(res.Failures, fmt.Sprintf("optimized sanitizer: %s", d))
	}
	for _, v := range Check(optd.Rep, optRun.San, optd.Prog.CARS) {
		res.Failures = append(res.Failures, fmt.Sprintf("optimized dominance: %s", v))
	}

	// Clause 3: the static report must not degrade.
	res.Failures = append(res.Failures, vetNonDegrading(orig.Rep, optd.Rep)...)

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

// OptDiffWorkloads runs the optimize→simulate differential over list
// in every ABI mode, optimizing each workload once, and prints each
// result's line to out.
func OptDiffWorkloads(ctx context.Context, list []*workloads.Workload, out io.Writer) ([]*OptDiffResult, bool, error) {
	var d *OptDiff
	return Drive(list, func(w *workloads.Workload, mode abi.Mode) (*OptDiffResult, error) {
		if d == nil || d.w != w { // Drive runs a workload's modes in a row
			var err error
			if d, err = NewOptDiff(w); err != nil {
				return nil, err
			}
		}
		return d.Run(ctx, mode)
	}, func(res *OptDiffResult) {
		details := append([]string(nil), res.Failures...)
		for _, c := range res.Certs {
			details = append(details, fmt.Sprintf("applied: %s", c))
		}
		line(out, 14, res.Workload, res.Mode, res.Reason, res.OK(),
			fmt.Sprintf(" %3d cert(s)  cycles %d→%d", len(res.Certs), res.CyclesOrig, res.CyclesOpt), details...)
	})
}
