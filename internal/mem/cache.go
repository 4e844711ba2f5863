// Package mem models the GPU memory hierarchy: sectored set-associative
// caches (L1D, L1I, L2 tags), MSHRs, port bandwidth, an L2/DRAM latency
// and bandwidth model, and per-warp access coalescing.
//
// The model is deliberately shaped around the two interference effects
// the paper separates (§I, §VI-A): capacity interference (spill lines
// evicting useful global data) and bandwidth interference (spill sectors
// consuming L1D ports and L2/DRAM bandwidth that global accesses need).
package mem

import (
	"fmt"
	"math/bits"
)

// AccessClass labels memory traffic for the paper's breakdowns.
type AccessClass uint8

// Traffic classes (Fig. 2 / Fig. 9 categories).
const (
	ClassGlobal     AccessClass = iota // global loads/stores
	ClassLocalSpill                    // ABI spill/fill traffic
	ClassLocalOther                    // non-spill local accesses
	ClassShared                        // shared-memory (not via L1)
	ClassInst                          // instruction fetch
	NumClasses
)

func (c AccessClass) String() string {
	switch c {
	case ClassGlobal:
		return "global"
	case ClassLocalSpill:
		return "spill/fill"
	case ClassLocalOther:
		return "local-other"
	case ClassShared:
		return "shared"
	case ClassInst:
		return "inst"
	}
	return "?"
}

// CacheConfig sizes one cache.
type CacheConfig struct {
	Bytes       int
	Assoc       int
	LineBytes   int // 128 on V100
	SectorBytes int // 32 on V100
}

// Sectors returns sectors per line.
func (c CacheConfig) Sectors() int { return c.LineBytes / c.SectorBytes }

// Lines returns the total line count.
func (c CacheConfig) Lines() int { return c.Bytes / c.LineBytes }

// Validate reports a geometry the cache's index math cannot serve.
// Lines and sectors are addressed by shift and mask, so both sizes must
// be powers of two, and a line's sector masks are uint8, so it holds 1
// to 8 sectors.
func (c CacheConfig) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("line size %d bytes is not a power of two", c.LineBytes)
	case c.SectorBytes <= 0 || c.SectorBytes&(c.SectorBytes-1) != 0:
		return fmt.Errorf("sector size %d bytes is not a power of two", c.SectorBytes)
	case c.SectorBytes > c.LineBytes || c.Sectors() > 8:
		return fmt.Errorf("%d-byte lines of %d-byte sectors hold %d sectors, want 1 to 8",
			c.LineBytes, c.SectorBytes, c.LineBytes/c.SectorBytes)
	case c.Assoc < 1:
		return fmt.Errorf("associativity %d, want at least 1", c.Assoc)
	}
	return nil
}

// Shifts returns log2 of the line and sector sizes of a geometry that
// passes Validate.
func (c CacheConfig) Shifts() (line, sector uint) {
	return uint(bits.TrailingZeros(uint(c.LineBytes))), uint(bits.TrailingZeros(uint(c.SectorBytes)))
}

type line struct {
	tag     uint64
	valid   bool
	sectors uint8 // valid-sector bitmask
	dirty   uint8 // dirty-sector bitmask
	lru     uint64
}

// CacheStats counts cache events by traffic class.
type CacheStats struct {
	Accesses   [NumClasses]uint64 // sector accesses
	Misses     [NumClasses]uint64 // sector misses
	LineFills  uint64
	Writebacks uint64 // dirty sector writebacks on eviction
}

// TotalAccesses sums sector accesses over all classes.
func (s *CacheStats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums sector misses over all classes.
func (s *CacheStats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// Cache is a sectored, set-associative cache tag array with LRU
// replacement. It tracks tags and sector validity only; data values live
// in the functional backing stores.
//
// Every operation scans its set once: find returns the set and the way
// holding the line, and access, fill and markDirty act on that way. The
// exported Access, Fill and MarkDirty are each one find and one action;
// the L1 and L2 chain several actions on one find.
type Cache struct {
	cfg         CacheConfig
	assoc       int
	lines       []line // sets × assoc
	tick        uint64
	Stats       CacheStats
	lineShift   uint // log2 LineBytes; a line's tag is its address >> lineShift
	sectorShift uint // log2 SectorBytes
	setMask     uint64
}

// NewCache builds a cache from a config that passes Validate. Sets are
// forced to a power of two by rounding down, keeping index math
// branch-free.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("mem: cache geometry: " + err.Error())
	}
	sets := cfg.Lines() / cfg.Assoc
	// round down to power of two
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	lineShift, sectorShift := cfg.Shifts()
	return &Cache{
		cfg:         cfg,
		assoc:       cfg.Assoc,
		lines:       make([]line, sets*cfg.Assoc),
		lineShift:   lineShift,
		sectorShift: sectorShift,
		setMask:     uint64(sets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr converts a byte address to a line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// SectorOf returns the sector index of a byte address within its line.
func (c *Cache) SectorOf(addr uint64) uint {
	return uint(addr&(1<<c.lineShift-1)) >> c.sectorShift
}

// find returns the set lineAddr maps to and the way holding the line,
// or nil when it is absent.
func (c *Cache) find(lineAddr uint64) (set []line, ln *line) {
	tag := lineAddr >> c.lineShift
	i := int(tag&c.setMask) * c.assoc
	set = c.lines[i : i+c.assoc]
	for j := range set {
		if set[j].valid && set[j].tag == tag {
			return set, &set[j]
		}
	}
	return set, nil
}

// Probe looks up a line without updating LRU or stats. It returns the
// valid-sector mask, or ok=false if the line is absent.
func (c *Cache) Probe(lineAddr uint64) (sectors uint8, ok bool) {
	if _, ln := c.find(lineAddr); ln != nil {
		return ln.sectors, true
	}
	return 0, false
}

// Access performs a sector-masked lookup, counting one access per
// requested sector under the class. It returns the subset of requested
// sectors that hit and the subset that missed. LRU is updated on contact.
func (c *Cache) Access(lineAddr uint64, sectorMask uint8, class AccessClass) (hit, miss uint8) {
	_, ln := c.find(lineAddr)
	return c.access(ln, sectorMask, class)
}

// access is Access on the way find returned (nil on a miss).
func (c *Cache) access(ln *line, sectorMask uint8, class AccessClass) (hit, miss uint8) {
	c.tick++
	n := uint64(bits.OnesCount8(sectorMask))
	c.Stats.Accesses[class] += n
	if ln == nil {
		c.Stats.Misses[class] += n
		return 0, sectorMask
	}
	ln.lru = c.tick
	hit = sectorMask & ln.sectors
	miss = sectorMask &^ ln.sectors
	c.Stats.Misses[class] += uint64(bits.OnesCount8(miss))
	return hit, miss
}

// Fill installs sectors for a line, allocating (and possibly evicting) a
// way if the line is absent. It returns the evicted dirty-sector count
// (writeback traffic) and the evicted line address.
func (c *Cache) Fill(lineAddr uint64, sectorMask uint8) (evictedDirty int, evictedAddr uint64) {
	set, ln := c.find(lineAddr)
	_, evictedDirty, evictedAddr = c.fill(set, ln, lineAddr, sectorMask)
	return evictedDirty, evictedAddr
}

// fill is Fill on the set and way find returned (ln nil when the line
// is absent); it also returns the way that now holds the line.
func (c *Cache) fill(set []line, ln *line, lineAddr uint64, sectorMask uint8) (way *line, evictedDirty int, evictedAddr uint64) {
	c.tick++
	c.Stats.LineFills++
	if ln != nil {
		ln.sectors |= sectorMask
		ln.lru = c.tick
		return ln, 0, 0
	}
	victim := &set[0]
	for i := range set {
		v := &set[i]
		if !v.valid {
			victim = v
			break
		}
		if v.lru < victim.lru {
			victim = v
		}
	}
	if victim.valid && victim.dirty != 0 {
		evictedDirty = bits.OnesCount8(victim.dirty)
		evictedAddr = victim.tag << c.lineShift
		c.Stats.Writebacks += uint64(evictedDirty)
	}
	*victim = line{tag: lineAddr >> c.lineShift, valid: true, sectors: sectorMask, lru: c.tick}
	return victim, evictedDirty, evictedAddr
}

// MarkDirty marks sectors dirty (and valid) on a present line; it
// reports whether the line was present.
func (c *Cache) MarkDirty(lineAddr uint64, sectorMask uint8) bool {
	_, ln := c.find(lineAddr)
	c.markDirty(ln, sectorMask)
	return ln != nil
}

// markDirty is MarkDirty on the way find returned; an absent line (nil)
// is left alone.
func (c *Cache) markDirty(ln *line, sectorMask uint8) {
	if ln == nil {
		return
	}
	ln.dirty |= sectorMask
	ln.sectors |= sectorMask
	ln.lru = c.tick
}
