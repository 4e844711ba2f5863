package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the tag array as it was before shift geometry and
// single-scan operations: index math by division, and Probe, Access,
// Fill and MarkDirty each scanning the set (Probe recomputing the set
// for every way it visits). refHier chains them as the L1 and L2
// operations used to. TestCacheMatchesReference and
// TestHierarchyMatchesReference hold the rewritten Cache, L1 and
// System to them.
type refCache struct {
	cfg     CacheConfig
	assoc   int
	lines   []line
	tick    uint64
	Stats   CacheStats
	setMask uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	sets := cfg.Lines() / cfg.Assoc
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return &refCache{cfg: cfg, assoc: cfg.Assoc, lines: make([]line, p*cfg.Assoc), setMask: uint64(p - 1)}
}

func (c *refCache) set(lineAddr uint64) []line {
	idx := (lineAddr / uint64(c.cfg.LineBytes)) & c.setMask
	return c.lines[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)]
}

func (c *refCache) tagOf(lineAddr uint64) uint64 { return lineAddr / uint64(c.cfg.LineBytes) }

func (c *refCache) Probe(lineAddr uint64) (sectors uint8, ok bool) {
	tag := c.tagOf(lineAddr)
	for i := range c.set(lineAddr) {
		ln := &c.set(lineAddr)[i]
		if ln.valid && ln.tag == tag {
			return ln.sectors, true
		}
	}
	return 0, false
}

func (c *refCache) Access(lineAddr uint64, sectorMask uint8, class AccessClass) (hit, miss uint8) {
	c.tick++
	n := bits.OnesCount8(sectorMask)
	c.Stats.Accesses[class] += uint64(n)
	tag := c.tagOf(lineAddr)
	set := c.set(lineAddr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.tick
			hit = sectorMask & ln.sectors
			miss = sectorMask &^ ln.sectors
			c.Stats.Misses[class] += uint64(bits.OnesCount8(miss))
			return hit, miss
		}
	}
	c.Stats.Misses[class] += uint64(n)
	return 0, sectorMask
}

func (c *refCache) Fill(lineAddr uint64, sectorMask uint8) (evictedDirty int, evictedAddr uint64) {
	c.tick++
	tag := c.tagOf(lineAddr)
	set := c.set(lineAddr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.sectors |= sectorMask
			ln.lru = c.tick
			c.Stats.LineFills++
			return 0, 0
		}
	}
	victim := &set[0]
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			victim = ln
			break
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	if victim.valid && victim.dirty != 0 {
		evictedDirty = bits.OnesCount8(victim.dirty)
		evictedAddr = victim.tag * uint64(c.cfg.LineBytes)
		c.Stats.Writebacks += uint64(evictedDirty)
	}
	victim.tag = tag
	victim.valid = true
	victim.sectors = sectorMask
	victim.dirty = 0
	victim.lru = c.tick
	c.Stats.LineFills++
	return evictedDirty, evictedAddr
}

func (c *refCache) MarkDirty(lineAddr uint64, sectorMask uint8) bool {
	tag := c.tagOf(lineAddr)
	set := c.set(lineAddr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.dirty |= sectorMask
			ln.sectors |= sectorMask
			ln.lru = c.tick
			return true
		}
	}
	return false
}

// sameTags reports the first difference between a Cache and a
// refCache: line states (tags, sectors, dirty bits, LRU stamps, so LRU
// order), the tick and the statistics.
func sameTags(c *Cache, r *refCache) error {
	for i := range c.lines {
		if c.lines[i] != r.lines[i] {
			return fmt.Errorf("way %d: %+v, reference %+v", i, c.lines[i], r.lines[i])
		}
	}
	if c.tick != r.tick {
		return fmt.Errorf("tick %d, reference %d", c.tick, r.tick)
	}
	if c.Stats != r.Stats {
		return fmt.Errorf("stats %+v, reference %+v", c.Stats, r.Stats)
	}
	return nil
}

// diffGeometries are the line/sector shapes the differential tests
// drive: the V100's, and the two 8-sector extremes.
var diffGeometries = []struct{ line, sector int }{{128, 32}, {64, 8}, {256, 32}}

// randMask returns a non-empty sector mask for a line of n sectors.
func randMask(rng *rand.Rand, n int) uint8 {
	return uint8(1 + rng.Intn(1<<n-1))
}

func TestCacheMatchesReference(t *testing.T) {
	for _, g := range diffGeometries {
		t.Run(fmt.Sprintf("%dB/%dB", g.line, g.sector), func(t *testing.T) {
			cfg := CacheConfig{Bytes: 16 * g.line, Assoc: 4, LineBytes: g.line, SectorBytes: g.sector}
			c, r := NewCache(cfg), newRefCache(cfg)
			rng := rand.New(rand.NewSource(int64(g.line)))
			for op := 0; op < 20000; op++ {
				addr := uint64(rng.Intn(64*g.line)) + 1<<32
				lineAddr := c.LineAddr(addr)
				if want := addr / uint64(g.line) * uint64(g.line); lineAddr != want {
					t.Fatalf("LineAddr(%#x) = %#x, want %#x", addr, lineAddr, want)
				}
				if got, want := c.SectorOf(addr), uint((addr%uint64(g.line))/uint64(g.sector)); got != want {
					t.Fatalf("SectorOf(%#x) = %d, want %d", addr, got, want)
				}
				mask := randMask(rng, cfg.Sectors())
				switch rng.Intn(4) {
				case 0:
					gs, gok := c.Probe(lineAddr)
					ws, wok := r.Probe(lineAddr)
					if gs != ws || gok != wok {
						t.Fatalf("op %d: Probe = %b,%v, reference %b,%v", op, gs, gok, ws, wok)
					}
				case 1:
					class := AccessClass(rng.Intn(int(NumClasses)))
					gh, gm := c.Access(lineAddr, mask, class)
					wh, wm := r.Access(lineAddr, mask, class)
					if gh != wh || gm != wm {
						t.Fatalf("op %d: Access = %b,%b, reference %b,%b", op, gh, gm, wh, wm)
					}
				case 2:
					gd, ga := c.Fill(lineAddr, mask)
					wd, wa := r.Fill(lineAddr, mask)
					if gd != wd || ga != wa {
						t.Fatalf("op %d: Fill = %d,%#x, reference %d,%#x", op, gd, ga, wd, wa)
					}
				case 3:
					if g, w := c.MarkDirty(lineAddr, mask), r.MarkDirty(lineAddr, mask); g != w {
						t.Fatalf("op %d: MarkDirty = %v, reference %v", op, g, w)
					}
				}
				if err := sameTags(c, r); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// refHier is an L1 and the L2 as reference tag arrays, driven by the
// old operation sequences. The MSHR table and the event queue did not
// change, so the real L1's MSHR state and the real System's event queue
// decide what the reference does.
type refHier struct {
	l1, l2 *refCache
	allHit bool
}

// load is L1.Load's tag work: Probe decides whether the load needs an
// MSHR; without a free one nothing changes. Otherwise Access, and for
// the sectors no MSHR has requested yet (inflight), FetchLine's L2
// Access and Fill.
func (h *refHier) load(lineAddr uint64, mask uint8, class AccessClass, mshrFree bool, inflight uint8) bool {
	if h.allHit && class == ClassLocalSpill {
		h.l1.Stats.Accesses[class] += uint64(bits.OnesCount8(mask))
		return true
	}
	if sectors, present := h.l1.Probe(lineAddr); (!present || mask&^sectors != 0) && !mshrFree {
		return false
	}
	if _, miss := h.l1.Access(lineAddr, mask, class); miss != 0 {
		if fetch := miss &^ inflight; fetch != 0 {
			if _, l2miss := h.l2.Access(lineAddr, fetch, class); l2miss != 0 {
				h.l2.Fill(lineAddr, l2miss)
			}
		}
	}
	return true
}

// fill is L1.Fill's tag work, with an eviction's Writeback.
func (h *refHier) fill(lineAddr uint64, sectors uint8) {
	if d, a := h.l1.Fill(lineAddr, sectors); d > 0 {
		h.l2.MarkDirty(a, 0)
	}
}

// storeGlobal is StoreGlobal: Access and MarkDirty on the L1, then
// WriteThrough's Access, Fill and MarkDirty on the L2.
func (h *refHier) storeGlobal(lineAddr uint64, mask uint8) {
	if hit, _ := h.l1.Access(lineAddr, mask, ClassGlobal); hit != 0 {
		h.l1.MarkDirty(lineAddr, hit)
	}
	if _, miss := h.l2.Access(lineAddr, mask, ClassGlobal); miss != 0 {
		h.l2.Fill(lineAddr, miss)
		h.l2.MarkDirty(lineAddr, miss)
	} else {
		h.l2.MarkDirty(lineAddr, mask)
	}
}

// storeLocal is StoreLocal: Access, Fill and MarkDirty on the L1.
func (h *refHier) storeLocal(lineAddr uint64, mask uint8, class AccessClass) {
	if h.allHit && class == ClassLocalSpill {
		h.l1.Stats.Accesses[class] += uint64(bits.OnesCount8(mask))
		return
	}
	if _, miss := h.l1.Access(lineAddr, mask, class); miss != 0 {
		h.fill(lineAddr, miss)
	}
	h.l1.MarkDirty(lineAddr, mask)
}

// TestHierarchyMatchesReference drives a real L1 and System and the
// reference sequences with one random stream of loads, stores and
// fills over a small line pool, and requires identical L1 and L2 line
// states, LRU stamps and statistics after every operation.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, g := range diffGeometries {
		for _, allHit := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dB/%dB/allhit=%v", g.line, g.sector, allHit), func(t *testing.T) {
				l1cfg := CacheConfig{Bytes: 16 * g.line, Assoc: 4, LineBytes: g.line, SectorBytes: g.sector}
				l2cfg := CacheConfig{Bytes: 64 * g.line, Assoc: 4, LineBytes: g.line, SectorBytes: g.sector}
				sys := NewSystem(SystemConfig{L2: l2cfg, L2Latency: 40, L2SectorsPerCycle: 4, DRAMLatency: 80, DRAMSectorsPerCycle: 2}, 1<<16)
				l1 := NewL1(L1Config{Cache: l1cfg, HitLatency: 20, MSHRs: 4, AllHitSpills: allHit}, sys)
				ref := &refHier{l1: newRefCache(l1cfg), l2: newRefCache(l2cfg), allHit: allHit}
				rng := rand.New(rand.NewSource(int64(g.line + g.sector)))
				var tgt countTarget
				now := int64(0)
				for op := 0; op < 20000; op++ {
					lineAddr := uint64(rng.Intn(128)) * uint64(g.line)
					mask := randMask(rng, l1cfg.Sectors())
					class := []AccessClass{ClassGlobal, ClassLocalSpill, ClassLocalOther}[rng.Intn(3)]
					switch rng.Intn(4) {
					case 0, 1:
						mi := l1.findMSHR(lineAddr)
						var inflight uint8
						if mi >= 0 {
							inflight = l1.mshrs[mi].pending | l1.mshrs[mi].arrived
						}
						free := mi >= 0 || len(l1.mshrs) < l1.cfg.MSHRs
						got := l1.Load(now, lineAddr, mask, class, &tgt)
						if want := ref.load(lineAddr, mask, class, free, inflight); got != want {
							t.Fatalf("op %d: Load accepted = %v, reference %v", op, got, want)
						}
					case 2:
						if class == ClassGlobal {
							l1.StoreGlobal(now, lineAddr, mask)
							ref.storeGlobal(lineAddr, mask)
						} else {
							l1.StoreLocal(now, lineAddr, mask, class)
							ref.storeLocal(lineAddr, mask, class)
						}
					case 3:
						now += int64(rng.Intn(60))
						due := slices.Clone(sys.events)
						slices.SortFunc(due, func(a, b event) int {
							if a.before(&b) {
								return -1
							}
							return 1
						})
						for _, e := range due {
							if e.cycle <= now {
								ref.fill(e.line, e.sectors)
							}
						}
						sys.RunEvents(now)
					}
					if err := sameTags(l1.cache, ref.l1); err != nil {
						t.Fatalf("op %d: L1 %v", op, err)
					}
					if err := sameTags(sys.l2, ref.l2); err != nil {
						t.Fatalf("op %d: L2 %v", op, err)
					}
				}
				if l1.Stats().TotalMisses() == 0 || sys.l2.Stats.Writebacks == 0 && l1.Stats().Writebacks == 0 {
					t.Fatalf("the stream never missed or never wrote back: L1 %+v, L2 %+v", *l1.Stats(), sys.l2.Stats)
				}
			})
		}
	}
}
