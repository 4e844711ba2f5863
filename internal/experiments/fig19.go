package experiments

import (
	"fmt"

	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/san"
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

// adviseLattice plans one workload under both spill-capable ABI modes
// (san.Unit.Plan: the static backend lattice for the workload's own
// launch geometry, read off an unstarted simulator — no kernel runs),
// and merges the columns with vet.CrossBackendAdvice. smem reports
// whether the shared-spill column can be measured: the shared-spill
// ABI accepts the workload (a recursive one cannot compile there) and
// every launch's block fits in shared memory (an over-committed launch
// admits zero blocks). A unit's Skip records both, as the san
// differential skips them.
func adviseLattice(w *workloads.Workload) (adv latticeAdvice, smem bool, err error) {
	adv = latticeAdvice{window: -1}
	carsU, err := san.Link(w, abi.CARS)
	if err != nil {
		return adv, false, err
	}
	shapes, err := carsU.Plan()
	if err != nil {
		return adv, false, err
	}
	var kernel string
	if len(shapes) > 0 {
		kernel = shapes[0].Kernel
	}
	reps := []*vet.ProgramReport{carsU.Rep}
	smemU, err := san.Link(w, abi.SharedSpill)
	if err != nil {
		return adv, false, err
	}
	if smemU.Prog != nil {
		if _, err := smemU.Plan(); err != nil {
			return adv, false, err
		}
		reps = append(reps, smemU.Rep)
		if kr := smemU.Rep.Kernel(kernel); kr != nil && kr.Perf != nil {
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
	return adv, carsU.Skip == "" && smemU.Skip == "", nil
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
		smem bool   // shared-spill column measurable (see adviseLattice)
		rfc  string // config name of the advised-window run; "" = none
	}
	lat := map[string]lattice{}
	for _, n := range allNames() {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		var l lattice
		if l.adv, l.smem, err = adviseLattice(w); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		if l.smem && l.adv.window > 0 {
			l.rfc = r.defineConfig(config.WithRFCache(config.V100(), l.adv.window))
		}
		lat[n] = l
	}
	// The shared-spill and RF-cache columns run only where measurable.
	smem := func(n string) request {
		if !lat[n].smem {
			return request{}
		}
		return under(smemN)(n)
	}
	rfc := func(n string) request {
		if lat[n].rfc == "" {
			return request{}
		}
		return under(lat[n].rfc)(n)
	}
	g, err := r.grid(allNames(), under(base), under(carsN), smem, rfc)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig19",
		Title:   "Spill-backend lattice: CARS vs shared-memory spilling vs RF-cache, speedup over baseline",
		Columns: []string{"Workload", "CARS", "SmemSpill", "RF-cache", "Window", "Advisor"},
	}
	var gC, gS, gR []float64
	for i, n := range allNames() {
		b, c, s, rf := g[i][0], g[i][1], g[i][2], g[i][3]
		l := lat[n]
		smemCell, rfcCell, winCell := "-", "-", "-"
		if l.smem {
			smemCell = fmtX(s.Speedup(b))
			gS = append(gS, s.Speedup(b))
			// A zero window means the kernel spills nothing: the
			// RF-cache backend degenerates to plain shared spilling.
			rfcCell, winCell = smemCell, "0"
			if rf == nil {
				rf = s
			} else {
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
