package main

import (
	"fmt"
	"os"

	"carsgo/internal/abi"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// The -backends stage cross-checks the static spill-policy lattice
// itself: every ABI mode's vet report is rebuilt with the backend
// columns attached (vet.AnalyzePerf), merged with CrossBackendAdvice,
// and held to the lattice's structural invariants — advice indices in
// range, coverage implying a zero residual spill bound, and the
// cross-backend winner actually carrying the maximal score among its
// kernel's candidate rows. The dynamic half of each backend is already
// exercised by the perf differential (san.Unit.PerfDiff); this stage catches the static half
// disagreeing with itself, which no simulator run can see. It checks
// the units the main harness linked, every linkable mode's, planned by
// PerfDiff or, where a verdict stopped the harness first, here.

// plannedReports plans each unit, for the workload's own launch
// geometry, and returns the reports with their backend lattices. A
// unit PerfDiff planned is not analysed again.
func plannedReports(units []*san.Unit) ([]*vet.ProgramReport, error) {
	var reps []*vet.ProgramReport
	for _, u := range units {
		if _, err := u.Plan(); err != nil {
			return nil, err
		}
		reps = append(reps, u.Rep)
	}
	return reps, nil
}

// latticeReports links a spec's workload under every linkable ABI mode
// and plans it: the backends selftest's own units.
func latticeReports(w *workloads.Workload) ([]*vet.ProgramReport, error) {
	var units []*san.Unit
	for _, mode := range abi.Modes {
		u, err := san.Link(w, mode)
		if err != nil || u.Skip != "" {
			continue // link verdicts are the main harness's business
		}
		units = append(units, u)
	}
	return plannedReports(units)
}

// checkBackendLattice returns every structural-invariant violation in
// the merged backend lattice of one spec's reports.
func checkBackendLattice(reps []*vet.ProgramReport) []string {
	var out []string
	for _, rep := range reps {
		for i := range rep.Kernels {
			kr := &rep.Kernels[i]
			if kr.Perf == nil {
				continue
			}
			for _, bp := range kr.Perf.Backends {
				tag := fmt.Sprintf("%s/%s/%s", rep.Mode, kr.Kernel, bp.Backend)
				if len(bp.Levels) == 0 {
					out = append(out, fmt.Sprintf("backends: %s: column with no levels", tag))
					continue
				}
				if a := bp.Advice; a != nil && (a.LevelIndex < 0 || a.LevelIndex >= len(bp.Levels)) {
					out = append(out, fmt.Sprintf("backends: %s: advice index %d outside %d levels",
						tag, a.LevelIndex, len(bp.Levels)))
				}
				for _, bl := range bp.Levels {
					if bl.Covered && (bl.SpillSmemBytes.Unbounded || bl.SpillSmemBytes.Value != 0) {
						out = append(out, fmt.Sprintf("backends: %s %s: covered level with residual spill bound %s",
							tag, bl.Level, bl.SpillSmemBytes.Sym))
					}
				}
			}
		}
	}
	for _, ca := range vet.CrossBackendAdvice(reps...) {
		if len(ca.Rows) == 0 {
			out = append(out, fmt.Sprintf("backends: cross %s: advice with no candidate rows", ca.Kernel))
			continue
		}
		win := ca.Rows[0]
		if win.Backend != ca.Backend || win.Level != ca.Level {
			out = append(out, fmt.Sprintf("backends: cross %s: winner %s/%s is not the top-ranked row %s/%s",
				ca.Kernel, ca.Backend, ca.Level, win.Backend, win.Level))
		}
		for _, row := range ca.Rows[1:] {
			if row.Score > win.Score {
				out = append(out, fmt.Sprintf("backends: cross %s: picked %s/%s (score %.1f) over %s/%s (score %.1f)",
					ca.Kernel, ca.Backend, ca.Level, win.Score, row.Backend, row.Level, row.Score))
			}
		}
	}
	return out
}

// checkBackends runs the lattice cross-check over one spec's units.
func checkBackends(units []*san.Unit) ([]string, error) {
	reps, err := plannedReports(units)
	if err != nil {
		return nil, err
	}
	return checkBackendLattice(reps), nil
}

// runBackendsSelftest proves the lattice checker is not vacuous: it
// finds a generated spec whose lattice carries a tamperable backend
// column, plants a forced mismatch in each invariant class — an
// out-of-range advice index and a coverage claim with residual
// traffic — and asserts the checker flags every plant. Exit 0 when
// all plants are caught, 1 otherwise.
func runBackendsSelftest(n int, seed uint64) int {
	for i := 0; i < n; i++ {
		s := spec.Generate(seed + uint64(i))
		reps, err := latticeReports(workloads.FromSpec(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsfuzz: backends-selftest: %s: %v\n", s.Name, err)
			return 2
		}
		smem := latticeTarget(reps)
		if smem == nil {
			continue // no rfcache ladder to tamper with; try the next spec
		}
		if pre := checkBackendLattice(reps); len(pre) > 0 {
			fmt.Fprintf(os.Stderr, "carsfuzz: backends-selftest: %s: lattice dirty before tampering: %v\n", s.Name, pre)
			return 2
		}
		plants := []struct {
			name   string
			tamper func()
		}{
			{
				name:   "out-of-range advice index",
				tamper: func() { smem.Advice.LevelIndex = len(smem.Levels) },
			},
			{
				name:   "covered level with residual traffic",
				tamper: func() { smem.Levels[0].Covered = true; smem.Levels[0].SpillSmemBytes.Value = 64 },
			},
		}
		for _, p := range plants {
			save, saveLvl := *smem.Advice, smem.Levels[0]
			p.tamper()
			caught := len(checkBackendLattice(reps)) > 0
			*smem.Advice, smem.Levels[0] = save, saveLvl
			if !caught {
				fmt.Printf("backends-selftest: planted %q NOT caught (spec %s)\n", p.name, s.Name)
				return 1
			}
		}
		fmt.Printf("backends-selftest: every planted lattice mismatch caught (spec %s, %d/%d)\n", s.Name, i+1, n)
		return 0
	}
	fmt.Fprintf(os.Stderr, "carsfuzz: backends-selftest: no generated spec within %d had a tamperable lattice\n", n)
	return 1
}

// latticeTarget picks a backend column suitable for tampering: one
// with advice and at least one level, preferring the smem column whose
// invariants are all expressible.
func latticeTarget(reps []*vet.ProgramReport) *vet.BackendPerf {
	for _, rep := range reps {
		for i := range rep.Kernels {
			kr := &rep.Kernels[i]
			if kr.Perf == nil {
				continue
			}
			for j := range kr.Perf.Backends {
				bp := &kr.Perf.Backends[j]
				if bp.Advice != nil && len(bp.Levels) > 0 && !bp.Levels[0].Covered {
					return bp
				}
			}
		}
	}
	return nil
}
