package mem

// L1Config parameterises a per-SM L1 cache front-end.
type L1Config struct {
	Cache      CacheConfig
	HitLatency int64
	MSHRs      int
	// AllHitSpills models the paper's ALL-HIT study (§VI-A2): spill/fill
	// accesses always hit without traversing the cache, but still pay
	// the hit latency and port bandwidth.
	AllHitSpills bool
}

// LoadTarget receives a load's completion.
type LoadTarget interface {
	// LoadDone runs exactly once per accepted Load, with the cycle at
	// which all of the access's sectors are available.
	LoadDone(cycle int64)
}

type l1Waiter struct {
	needed uint8
	target LoadTarget
}

type l1MSHR struct {
	line    uint64
	pending uint8 // sectors requested from L2, not yet arrived
	arrived uint8
	waiters []l1Waiter
}

// L1 is a per-SM first-level cache with MSHRs, backed by the shared
// System. Loads that miss allocate an MSHR and complete when the fill
// arrives; global stores write through; local stores write back with
// allocate-on-write (spill frames are warp-private and fully written,
// so no fetch-on-write is needed).
type L1 struct {
	cache *Cache
	sys   *System
	cfg   L1Config

	// mshrs holds the in-flight MSHRs, unordered, in a table of
	// cfg.MSHRs entries; past its length lie released entries, whose
	// waiter slices the next allocations reuse.
	mshrs []l1MSHR

	// MSHRStalls counts cycles the LSU could not proceed for want of an
	// MSHR entry.
	MSHRStalls uint64
}

// NewL1 builds an L1 front-end.
func NewL1(cfg L1Config, sys *System) *L1 {
	return &L1{cache: NewCache(cfg.Cache), sys: sys, cfg: cfg, mshrs: make([]l1MSHR, 0, cfg.MSHRs)}
}

// Cache exposes the underlying tag array for statistics.
func (l *L1) Cache() *Cache { return l.cache }

// Stats returns the tag-array statistics.
func (l *L1) Stats() *CacheStats { return &l.cache.Stats }

// LineBytes returns the line size.
func (l *L1) LineBytes() int { return l.cfg.Cache.LineBytes }

// SectorBytes returns the sector size.
func (l *L1) SectorBytes() int { return l.cfg.Cache.SectorBytes }

// Load processes one coalesced load access (a line address plus sector
// mask). t.LoadDone runs exactly once with the cycle at which all
// requested sectors are available: immediately on a hit, from
// System.RunEvents on a miss. Load reports false — and performs
// nothing — if an MSHR is required but none is free; the caller retries.
func (l *L1) Load(now int64, lineAddr uint64, sectorMask uint8, class AccessClass, t LoadTarget) bool {
	if l.cfg.AllHitSpills && class == ClassLocalSpill {
		l.cache.Stats.Accesses[class] += uint64(popcount8(sectorMask))
		t.LoadDone(now + l.cfg.HitLatency)
		return true
	}
	// Reserve MSHR capacity before mutating tag state: a miss with no
	// free MSHR must leave the cache untouched so the retry is clean.
	mi := -1
	if sectors, present := l.cache.Probe(lineAddr); !present || sectorMask&^sectors != 0 {
		if mi = l.findMSHR(lineAddr); mi < 0 && len(l.mshrs) >= l.cfg.MSHRs {
			l.MSHRStalls++
			return false
		}
	}

	_, miss := l.cache.Access(lineAddr, sectorMask, class)
	if miss == 0 {
		t.LoadDone(now + l.cfg.HitLatency)
		return true
	}
	var m *l1MSHR
	if mi >= 0 {
		m = &l.mshrs[mi]
	} else {
		m = l.allocMSHR(lineAddr)
	}
	newSectors := miss &^ (m.pending | m.arrived)
	m.waiters = append(m.waiters, l1Waiter{needed: miss, target: t})
	if newSectors != 0 {
		m.pending |= newSectors
		done := l.sys.FetchLine(now, lineAddr, newSectors, class)
		l.sys.Schedule(done, l, lineAddr, newSectors)
	}
	return true
}

func (l *L1) findMSHR(lineAddr uint64) int {
	for i := range l.mshrs {
		if l.mshrs[i].line == lineAddr {
			return i
		}
	}
	return -1
}

func (l *L1) allocMSHR(lineAddr uint64) *l1MSHR {
	n := len(l.mshrs)
	if n < cap(l.mshrs) {
		l.mshrs = l.mshrs[:n+1] // a released entry: reuse its waiter slice
	} else {
		l.mshrs = append(l.mshrs, l1MSHR{})
	}
	m := &l.mshrs[n]
	m.line, m.pending, m.arrived = lineAddr, 0, 0
	m.waiters = m.waiters[:0]
	return m
}

// releaseMSHR retires in-flight entry i, which has no pending sectors
// and no waiters, by swapping it past the table's length.
func (l *L1) releaseMSHR(i int) {
	last := len(l.mshrs) - 1
	l.mshrs[i], l.mshrs[last] = l.mshrs[last], l.mshrs[i]
	l.mshrs = l.mshrs[:last]
}

// Fill delivers a scheduled line fill (the L1's FillSink): it installs
// the sectors and completes every waiter whose sectors have all
// arrived.
func (l *L1) Fill(now int64, lineAddr uint64, sectors uint8) {
	evDirty, evAddr := l.cache.Fill(lineAddr, sectors)
	if evDirty > 0 {
		l.sys.Writeback(now, evAddr, evDirty)
	}
	i := l.findMSHR(lineAddr)
	if i < 0 {
		return
	}
	m := &l.mshrs[i]
	m.arrived |= sectors
	m.pending &^= sectors
	kept := m.waiters[:0]
	for _, w := range m.waiters {
		if w.needed&^m.arrived == 0 {
			w.target.LoadDone(now)
		} else {
			kept = append(kept, w)
		}
	}
	clear(m.waiters[len(kept):]) // completed waiters drop their targets
	m.waiters = kept
	if m.pending == 0 && len(m.waiters) == 0 {
		l.releaseMSHR(i)
	}
}

// StoreGlobal processes a coalesced global store: write-through,
// no-allocate. Stores complete asynchronously and never stall the warp.
func (l *L1) StoreGlobal(now int64, lineAddr uint64, sectorMask uint8) {
	hit, _ := l.cache.Access(lineAddr, sectorMask, ClassGlobal)
	if hit != 0 {
		// Keep L1 contents coherent with the write-through data.
		l.cache.MarkDirty(lineAddr, hit)
	}
	l.sys.WriteThrough(now, lineAddr, sectorMask, ClassGlobal)
}

// StoreLocal processes a coalesced local store (a spill when class is
// ClassLocalSpill): write-back with allocate-on-write. Spill frames are
// warp-private full-sector writes, so the allocation fetches nothing.
func (l *L1) StoreLocal(now int64, lineAddr uint64, sectorMask uint8, class AccessClass) {
	if l.cfg.AllHitSpills && class == ClassLocalSpill {
		l.cache.Stats.Accesses[class] += uint64(popcount8(sectorMask))
		return
	}
	_, miss := l.cache.Access(lineAddr, sectorMask, class)
	if miss != 0 {
		evDirty, evAddr := l.cache.Fill(lineAddr, miss)
		if evDirty > 0 {
			l.sys.Writeback(now, evAddr, evDirty)
		}
	}
	l.cache.MarkDirty(lineAddr, sectorMask)
}

// PendingMSHRs returns the number of in-flight MSHR entries.
func (l *L1) PendingMSHRs() int { return len(l.mshrs) }
