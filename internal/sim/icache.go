package sim

import "carsgo/internal/mem"

// icache is the per-SM L1 instruction cache. Contemporary GPU
// instructions are 16B wide, so code footprint pressure — which full
// inlining aggravates (Fig. 16) — shows up as L1I misses and front-end
// stalls here.
type icache struct {
	tags    *mem.Cache
	sys     *mem.System
	pending map[uint64]int64 // line -> fill-complete cycle
}

func newICache(cfg mem.CacheConfig, sys *mem.System) *icache {
	return &icache{tags: mem.NewCache(cfg), sys: sys, pending: map[uint64]int64{}}
}

// Fetch models an instruction fetch at byte address addr. It returns
// ready=true when the line is resident; otherwise the warp must stall
// until the returned wake cycle.
func (ic *icache) Fetch(now int64, addr uint64) (ready bool, wake int64) {
	lineAddr := ic.tags.LineAddr(addr)
	sector := uint8(1) << ic.tags.SectorOf(addr)
	hit, miss := ic.tags.Access(lineAddr, sector, mem.ClassInst)
	if miss == 0 {
		_ = hit
		return true, 0
	}
	if done, ok := ic.pending[lineAddr]; ok {
		return false, done
	}
	// Fetch the whole line: sequential code makes full-line fills the
	// right prefetch policy for an icache.
	full := uint8(1)<<ic.tags.Config().Sectors() - 1
	done := ic.sys.FetchLine(now, lineAddr, full, mem.ClassInst)
	ic.pending[lineAddr] = done
	ic.sys.Schedule(done, ic, lineAddr, full)
	return false, done
}

// Fill installs a fetched line (the icache's mem.FillSink).
func (ic *icache) Fill(now int64, lineAddr uint64, sectors uint8) {
	ic.tags.Fill(lineAddr, sectors)
	delete(ic.pending, lineAddr)
}
