package experiments

import (
	"errors"
	"fmt"

	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/san"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// latticeAdvice is the static half of the backend comparison for one
// workload: the RF-cache window the advisor picked (so the measured
// rfcache column runs the advised design point, not a sweep), and the
// cross-backend advisor's overall recommendation.
type latticeAdvice struct {
	window  int    // advised RF-cache window in words; -1: no rfcache lattice
	rfLevel string // advised window's level name
	pick    string // cross-backend recommendation, "backend/level"
}

// adviseLattice links one workload under both spill-capable ABI modes,
// runs the static backend lattice (vet.AnalyzePerf), and merges the
// columns with vet.CrossBackendAdvice. Launch geometry comes from the
// workload's own setup on an unstarted simulator — no kernel runs.
// The returned fit reports whether every shared-spill launch's frame
// fits in shared memory: an over-committed launch admits zero blocks
// and cannot be measured (the san differential skips it the same way).
func adviseLattice(w *workloads.Workload, smemOK bool) (adv latticeAdvice, fit bool, err error) {
	adv, fit = latticeAdvice{window: -1}, smemOK
	var reps []*vet.ProgramReport
	var kernel string
	analyze := func(cfg sim.Config, mode abi.Mode) (*vet.ProgramReport, error) {
		prog, err := abi.Link(mode, w.Modules()...)
		if err != nil {
			return nil, err
		}
		g, err := sim.New(cfg, prog)
		if err != nil {
			return nil, err
		}
		launches, err := w.Setup(g)
		if err != nil {
			return nil, err
		}
		if kernel == "" && len(launches) > 0 {
			kernel = launches[0].Kernel
		}
		for _, l := range launches {
			shape := cars.Shape{Dim: l.Dim, SharedBytes: l.SharedBytes, SpillPerThread: prog.SmemSpillPerThread}
			if shape.BlockSmem() > cfg.SharedMemBytes {
				fit = false
			}
		}
		rep := vet.Report(prog)
		if err := vet.AnalyzePerf(rep, prog, san.MachineParamsFor(cfg), san.Shapes(launches)); err != nil {
			return nil, err
		}
		return rep, nil
	}
	carsRep, err := analyze(config.WithCARS(config.V100()), abi.CARS)
	if err != nil {
		return adv, fit, err
	}
	reps = append(reps, carsRep)
	if smemOK {
		smemRep, err := analyze(config.WithSharedSpill(config.V100()), abi.SharedSpill)
		if err != nil {
			return adv, fit, err
		}
		reps = append(reps, smemRep)
		if kr := smemRep.Kernel(kernel); kr != nil && kr.Perf != nil {
			for _, bp := range kr.Perf.Backends {
				if bp.Backend != cars.BackendRFCache.String() || bp.Advice == nil {
					continue
				}
				if i := bp.Advice.LevelIndex; i >= 0 && i < len(bp.Levels) {
					adv.window = bp.Levels[i].StackSlots
					adv.rfLevel = bp.Levels[i].Level
				}
			}
		}
	}
	for _, ca := range vet.CrossBackendAdvice(reps...) {
		if ca.Kernel == kernel {
			adv.pick = ca.Backend + "/" + ca.Level
		}
	}
	return adv, fit, nil
}

// Fig19 regenerates the cross-backend lattice comparison (DESIGN.md
// §12): per-workload speedup over the V100 baseline of the three spill
// backends — CARS register stacks, RegDem-style shared-memory spilling,
// and the RF-cache window at the advisor's statically-chosen size —
// next to the cross-backend advisor's pick. Recursive workloads cannot
// compile under the shared-spill ABI and show only the CARS column.
func (r *Runner) Fig19() (*Table, error) {
	base, carsN := r.baseName(), r.carsName()
	smemN := r.defineConfig(config.WithSharedSpill(config.V100()))

	type lattice struct {
		adv  latticeAdvice
		smem bool   // shared-spill ABI links (no recursion)
		rfc  string // config name of the advised-window run; "" = none
	}
	lat := map[string]lattice{}
	var reqs []request
	for _, n := range allNames() {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		l := lattice{smem: true}
		if _, err := abi.Link(abi.SharedSpill, w.Modules()...); err != nil {
			if !errors.Is(err, abi.ErrRecursive) {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			l.smem = false
		}
		var fit bool
		if l.adv, fit, err = adviseLattice(w, l.smem); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		l.smem = l.smem && fit
		reqs = append(reqs, request{base, n, false, ""}, request{carsN, n, false, ""})
		if l.smem {
			reqs = append(reqs, request{smemN, n, false, ""})
			if l.adv.window > 0 {
				l.rfc = r.defineConfig(config.WithRFCache(config.V100(), l.adv.window))
				reqs = append(reqs, request{l.rfc, n, false, ""})
			}
		}
		lat[n] = l
	}
	r.prefetch(reqs)

	t := &Table{
		ID:      "fig19",
		Title:   "Spill-backend lattice: CARS vs shared-memory spilling vs RF-cache, speedup over baseline",
		Columns: []string{"Workload", "CARS", "SmemSpill", "RF-cache", "Window", "Advisor"},
	}
	var gC, gS, gR []float64
	for _, n := range allNames() {
		b, err := r.result(base, n, false)
		if err != nil {
			return nil, err
		}
		c, err := r.result(carsN, n, false)
		if err != nil {
			return nil, err
		}
		l := lat[n]
		smemCell, rfcCell, winCell := "-", "-", "-"
		if l.smem {
			s, err := r.result(smemN, n, false)
			if err != nil {
				return nil, err
			}
			smemCell = fmtX(s.Speedup(b))
			gS = append(gS, s.Speedup(b))
			// A zero window means the kernel spills nothing: the
			// RF-cache backend degenerates to plain shared spilling.
			rfcCell, winCell = smemCell, "0"
			rf := s
			if l.rfc != "" {
				if rf, err = r.result(l.rfc, n, false); err != nil {
					return nil, err
				}
				rfcCell = fmtX(rf.Speedup(b))
				winCell = fmt.Sprintf("%dw (%s)", l.adv.window, l.adv.rfLevel)
			}
			gR = append(gR, rf.Speedup(b))
		}
		t.Rows = append(t.Rows, []string{n, fmtX(c.Speedup(b)), smemCell, rfcCell, winCell, l.adv.pick})
		gC = append(gC, c.Speedup(b))
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN", fmtX(stats.Geomean(gC)),
		fmtX(stats.Geomean(gS)), fmtX(stats.Geomean(gR)), "", ""})
	t.Notes = append(t.Notes,
		"RF-cache runs the window the static advisor picked; '-' marks workloads the shared-spill ABI rejects (recursion) or whose spill frames overflow shared memory",
		"Advisor = vet's cross-backend recommendation (backend/level) from the static lattice alone")
	return t, nil
}
