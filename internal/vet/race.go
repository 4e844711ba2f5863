package vet

import (
	"slices"
	"sort"

	"carsgo/internal/isa"
)

// Static shared-memory race analysis (see DESIGN.md §8). The barrier
// interval abstraction: BAR.SYNC orders everything before it against
// everything after it, so two shared accesses can only race if some
// execution reaches one from the other without crossing a barrier.
// Candidate pairs are filtered by the affine address abstraction from
// sync.go — two accesses whose addresses provably differ by at least a
// word for every pair of distinct threads cannot touch the same word.

// kernelSync is the per-kernel synchronization verdict.
type kernelSync struct {
	barrierSafe    bool
	raceFree       bool
	sharedAccesses int
	racePairs      []RacePair
}

// analyzeRaces runs after the sync fixpoint: per-kernel race pair
// detection, shared-spill ABI hygiene checks, and the reachability-
// based barrier/race verdicts over each kernel's reachFrom set (sums
// are the same functions' summaries). Returned map is keyed by kernel
// name.
func (sp *syncProgram) analyzeRaces(sums []*funcSummary) map[string]*kernelSync {
	for _, f := range sp.funcs {
		if f.sum.analyzed {
			sp.raceFunc(f)
			if sp.linked && sp.mode == modeSmem {
				sp.checkSpillSP(f)
			}
		}
	}

	// Which functions carry sync diagnostics, for the verdict pass.
	barrierBad := map[string]bool{}
	raceBad := map[string]bool{}
	for _, d := range sp.diags {
		switch d.Check {
		case CheckBarrier:
			barrierBad[d.Func] = true
		case CheckSharedRace:
			raceBad[d.Func] = true
		}
	}

	out := map[string]*kernelSync{}
	for ki, kf := range sp.funcs {
		if !kf.isKernel || !kf.sum.analyzed {
			continue
		}
		ks := &kernelSync{barrierSafe: true, raceFree: true, sharedAccesses: len(kf.shared), racePairs: kf.pairs}
		for _, fi := range reachFrom(sums, ki) {
			f := sp.funcs[fi]
			if !f.sum.analyzed {
				ks.barrierSafe, ks.raceFree = false, false
				continue
			}
			if barrierBad[f.name] {
				ks.barrierSafe = false
			}
			if raceBad[f.name] {
				ks.raceFree = false
			}
			if slices.ContainsFunc(f.summary.sites, func(s callSite) bool { return s.unresolved }) {
				// An unresolvable callee could barrier or touch shared
				// memory; neither verdict can be claimed.
				ks.barrierSafe, ks.raceFree = false, false
			}
			if fi != ki && f.sum.sharedUser {
				// Cross-function race analysis is not performed: a device
				// function's shared accesses interleave with the kernel's
				// in ways the per-function pass cannot pair up.
				ks.raceFree = false
				sp.diag(kf, SevWarning, -1, CheckSharedRace,
					"reaches %s, which accesses user shared memory: cross-function races not analyzed", f.name)
			}
		}
		out[kf.name] = ks
	}
	return out
}

// raceFunc finds may-race pairs among the function's own shared sites.
func (sp *syncProgram) raceFunc(f *syncFunc) {
	f.pairs = nil
	for ai := range f.shared {
		for bi := ai; bi < len(f.shared); bi++ {
			a, b := &f.shared[ai], &f.shared[bi]
			if !a.store && !b.store {
				continue
			}
			// Same barrier interval: one site reaches the other without
			// crossing BAR.SYNC. A site always shares an interval with
			// itself — one warp-wide execution already has all lanes
			// accessing together.
			if ai != bi && !reachNoBar(f, a.index, b.index) && !reachNoBar(f, b.index, a.index) {
				continue
			}
			if !mayOverlap(a.addr, b.addr) {
				continue
			}
			kind := "r/w"
			if a.store && b.store {
				kind = "w/w"
			}
			f.pairs = append(f.pairs, RacePair{First: a.index, Second: b.index, Kind: kind})
			sp.diag(f, SevWarning, a.index, CheckSharedRace,
				"shared %s at [%d] may race (%s) with the access at [%d] in the same barrier interval",
				opName(a.store), a.index, kind, b.index)
		}
	}
	sort.Slice(f.pairs, func(i, j int) bool {
		if f.pairs[i].First != f.pairs[j].First {
			return f.pairs[i].First < f.pairs[j].First
		}
		return f.pairs[i].Second < f.pairs[j].Second
	})
}

func opName(store bool) string {
	if store {
		return "store"
	}
	return "load"
}

// reachNoBar reports whether control can flow from (just after) the
// instruction at from to the instruction at to without executing a
// BAR.SYNC on the way.
func reachNoBar(f *syncFunc, from, to int) bool {
	c := f.cfg
	bi := c.blockOf[from]
	b := &c.blocks[bi]
	for k := from + 1; k < b.end; k++ {
		if k == to {
			return true
		}
		if f.code[k].Op == isa.OpBar {
			return false
		}
	}
	seen := make([]bool, len(c.blocks))
	work := append([]int(nil), b.succs...)
	for _, s := range b.succs {
		seen[s] = true
	}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		bb := &c.blocks[x]
		blocked := false
		for k := bb.start; k < bb.end; k++ {
			if k == to {
				return true
			}
			if f.code[k].Op == isa.OpBar {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		for _, s := range bb.succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// mayOverlap decides whether two abstract addresses can land in the
// same 4-byte shared word for two DISTINCT threads of a block. A
// single thread's own accesses are ordered by program order, so the
// equal-thread case never races and is excluded from the search.
func mayOverlap(a, b aval) bool {
	if a.kind != avAffine || b.kind != avAffine || a.sym != b.sym {
		return true // unknown or incomparable bases: assume overlap
	}
	maxL := int64(isa.WarpSize - 1)
	maxW := int64(isa.MaxBlockThreads/isa.WarpSize - 1)
	if a.cL == b.cL && a.cW == b.cW {
		// delta = Δc0 + cL·(l1-l2) + cW·(w1-w2) over (dl,dw) ≠ (0,0).
		d0 := a.c0 - b.c0
		for dl := -maxL; dl <= maxL; dl++ {
			for dw := -maxW; dw <= maxW; dw++ {
				if dl == 0 && dw == 0 {
					continue
				}
				if d := abs64(d0 + a.cL*dl + a.cW*dw); d < 4 {
					return true
				}
			}
		}
		return false
	}
	// General coefficients: interval separation first, then a bounded
	// search over both threads' (lane, warp) coordinates.
	lo1, hi1 := rangeOf(a)
	lo2, hi2 := rangeOf(b)
	if hi1+3 < lo2 || hi2+3 < lo1 {
		return false
	}
	for l1 := int64(0); l1 <= maxL; l1++ {
		for w1 := int64(0); w1 <= maxW; w1++ {
			v1 := a.c0 + a.cL*l1 + a.cW*w1
			for l2 := int64(0); l2 <= maxL; l2++ {
				for w2 := int64(0); w2 <= maxW; w2++ {
					if l1 == l2 && w1 == w2 {
						continue
					}
					if d := v1 - (b.c0 + b.cL*l2 + b.cW*w2); abs64(d) < 4 {
						return true
					}
				}
			}
		}
	}
	return false
}

// checkSpillSP enforces shared-spill ABI hygiene: R0 is the per-thread
// spill stack pointer, so the only legal write is the lowering's own
// IADD R0, R0, #imm adjustment; and user shared accesses must not
// derive their address from R0 (they would alias the spill frames).
func (sp *syncProgram) checkSpillSP(f *syncFunc) {
	for i := range f.code {
		in := &f.code[i]
		if in.WritesReg() && in.Dst == 0 &&
			!(in.Op == isa.OpIAdd && in.SrcA == 0 && in.SrcB == isa.NoReg) {
			sp.diag(f, SevWarning, i, CheckModeMismatch,
				"writes R0, the shared-spill stack pointer; only the ABI's IADD R0, R0, #imm adjustment is legal")
		}
	}
	for _, s := range f.shared {
		if s.addr.kind == avAffine && s.addr.sym == symSpill {
			sp.diag(f, SevWarning, s.index, CheckSharedRace,
				"user shared access at [%d] derives its address from the spill stack pointer: may race with spill traffic", s.index)
		}
	}
}
