package cars

// This file generalises the CARS allocation ladder into a spill-policy
// lattice: CARS register stacks are one backend among three. The other
// two rungs come from the competing designs PAPERS.md names — RegDem's
// shared-memory register spilling and a compiler-assisted register
// file cache — re-expressed over the same Plan/Level machinery so the
// static occupancy model, the watermark advisor, and the perf
// differential can score every backend through one interface.

import "fmt"

// Backend names one rung family of the spill-policy lattice.
type Backend uint8

const (
	// BackendCARS allocates per-warp register stacks with the
	// Low..High watermark ladder and trap fallback (this paper).
	BackendCARS Backend = iota
	// BackendSmemSpill is RegDem-style shared-memory spilling: the
	// callee-saved frames live in the smem segment, so occupancy is
	// traded through shared-memory pressure instead of register
	// pressure, and every spill pays bank-conflict-serialised smem
	// traffic.
	BackendSmemSpill
	// BackendRFCache fronts the shared-memory spill frames with a
	// bounded per-thread register window that absorbs the hottest
	// (stack-top) spill slots at register cost: occupancy is traded
	// through the window size.
	BackendRFCache
)

// Backends lists every declared backend in lattice order. New backends
// must be appended here; the backendexhaustive lint analyzer keeps
// switch statements over Backend in sync with this list.
var Backends = []Backend{BackendCARS, BackendSmemSpill, BackendRFCache}

// String renders the backend the way CLI flags and reports spell it.
func (b Backend) String() string {
	switch b {
	case BackendCARS:
		return "cars"
	case BackendSmemSpill:
		return "smem"
	case BackendRFCache:
		return "rfcache"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend resolves a CLI spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	for _, b := range Backends {
		if s == b.String() {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want cars, smem, or rfcache)", s)
}

// NewWindowPlan builds the RF-cache window ladder for a kernel whose
// per-thread shared-memory spill frame totals spillWords words and
// whose largest single function frame is maxFrameWords.
//
// The ladder mirrors NewPlan's shape over window sizes: Low is the
// smallest window that keeps the hottest single frame entirely in
// registers, the N×Low points double it, and High covers the whole
// spill segment — at High every spill access is absorbed, the
// "miss-free" analogue of CARS' trap-free High. StackSlots is the
// window size in warp-register slots beyond the kernel base (one
// cached spill word per thread costs one vector register per warp).
func NewWindowPlan(base, maxFrameWords, spillWords, maxWarpsOther, regSlotsPerSM int) *Plan {
	return newLadder(base, min(maxFrameWords, spillWords), spillWords, maxWarpsOther, regSlotsPerSM)
}
