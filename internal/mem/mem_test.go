package mem

import (
	"math/rand"
	"sort"
	"testing"
)

func testCacheConfig() CacheConfig {
	return CacheConfig{Bytes: 8 * 1024, Assoc: 4, LineBytes: 128, SectorBytes: 32}
}

func TestCacheGeometry(t *testing.T) {
	c := testCacheConfig()
	if c.Sectors() != 4 {
		t.Fatalf("sectors = %d", c.Sectors())
	}
	if c.Lines() != 64 {
		t.Fatalf("lines = %d", c.Lines())
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(testCacheConfig())
	hit, miss := c.Access(0, 0b0011, ClassGlobal)
	if hit != 0 || miss != 0b0011 {
		t.Fatalf("cold access: hit=%b miss=%b", hit, miss)
	}
	c.Fill(0, 0b0011)
	hit, miss = c.Access(0, 0b0001, ClassGlobal)
	if hit != 0b0001 || miss != 0 {
		t.Fatalf("warm access: hit=%b miss=%b", hit, miss)
	}
	// Partial sector miss on a present line.
	hit, miss = c.Access(0, 0b1100, ClassGlobal)
	if hit != 0 || miss != 0b1100 {
		t.Fatalf("sector miss: hit=%b miss=%b", hit, miss)
	}
	if c.Stats.Accesses[ClassGlobal] != 5 {
		t.Fatalf("access count = %d", c.Stats.Accesses[ClassGlobal])
	}
	if c.Stats.Misses[ClassGlobal] != 4 {
		t.Fatalf("miss count = %d", c.Stats.Misses[ClassGlobal])
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cfg := testCacheConfig()
	c := NewCache(cfg)
	sets := cfg.Lines() / cfg.Assoc
	// Fill one set past its associativity; the first line evicts.
	addr := func(i int) uint64 { return uint64(i) * uint64(sets) * uint64(cfg.LineBytes) }
	for i := 0; i <= cfg.Assoc; i++ {
		c.Access(addr(i), 0b1111, ClassGlobal)
		c.Fill(addr(i), 0b1111)
	}
	if _, ok := c.Probe(addr(0)); ok {
		t.Fatal("LRU line not evicted")
	}
	if _, ok := c.Probe(addr(1)); !ok {
		t.Fatal("wrong line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := testCacheConfig()
	c := NewCache(cfg)
	sets := cfg.Lines() / cfg.Assoc
	addr := func(i int) uint64 { return uint64(i) * uint64(sets) * uint64(cfg.LineBytes) }
	c.Fill(addr(0), 0b1111)
	c.MarkDirty(addr(0), 0b0011)
	for i := 1; i <= cfg.Assoc; i++ {
		c.Fill(addr(i), 0b1111)
	}
	if c.Stats.Writebacks != 2 {
		t.Fatalf("writebacks = %d, want 2 dirty sectors", c.Stats.Writebacks)
	}
}

// Property: hits+misses == accesses per class, under random traffic.
func TestCacheAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewCache(testCacheConfig())
	var hits, misses uint64
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(256)) * 128
		mask := uint8(rng.Intn(15) + 1)
		h, m := c.Access(addr, mask, ClassGlobal)
		hits += uint64(popcount8(h))
		misses += uint64(popcount8(m))
		if h&m != 0 {
			t.Fatal("sector both hit and missed")
		}
		if h|m != mask {
			t.Fatal("hit+miss must cover the request")
		}
		if m != 0 {
			c.Fill(addr, m)
		}
	}
	if c.Stats.Misses[ClassGlobal] != misses {
		t.Fatalf("miss accounting: %d vs %d", c.Stats.Misses[ClassGlobal], misses)
	}
	if c.Stats.Accesses[ClassGlobal] != hits+misses {
		t.Fatalf("access accounting: %d vs %d", c.Stats.Accesses[ClassGlobal], hits+misses)
	}
}

func newTestSystem() *System {
	return NewSystem(SystemConfig{
		L2:                  CacheConfig{Bytes: 64 * 1024, Assoc: 8, LineBytes: 128, SectorBytes: 32},
		L2Latency:           100,
		L2SectorsPerCycle:   4,
		DRAMLatency:         200,
		DRAMSectorsPerCycle: 2,
	}, 1<<16)
}

func TestSystemAllocAligned(t *testing.T) {
	s := newTestSystem()
	a := s.Alloc(10)
	b := s.Alloc(10)
	if a%256 != 0 || b%256 != 0 {
		t.Fatalf("allocations not 256B aligned: %d %d", a, b)
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
	s.WriteGlobal(a, 42)
	if s.ReadGlobal(a) != 42 {
		t.Fatal("global round trip failed")
	}
}

func TestFetchLatencies(t *testing.T) {
	s := newTestSystem()
	// Cold fetch goes to DRAM: >= L2 + DRAM latency.
	done := s.FetchLine(0, 0, 0b1111, ClassGlobal)
	if done < 300 {
		t.Fatalf("cold fetch done at %d, want >= 300", done)
	}
	// Second fetch of the same line is an L2 hit: roughly L2 latency.
	done2 := s.FetchLine(done, 0, 0b1111, ClassGlobal)
	if done2-done < 100 || done2-done > 120 {
		t.Fatalf("L2 hit latency = %d", done2-done)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	s := newTestSystem()
	// Saturate L2 bandwidth: many requests at cycle 0 must serialise.
	var last int64
	for i := 0; i < 32; i++ {
		done := s.FetchLine(0, uint64(i*128), 0b1111, ClassGlobal)
		if done < last {
			t.Fatal("completion times went backwards")
		}
		last = done
	}
	// 32 lines × 4 sectors at 4 sectors/cycle = ≥32 cycles of service
	// beyond the base latency.
	if last < 300+28 {
		t.Fatalf("bandwidth not serialised: last=%d", last)
	}
}

// recordSink records the line of every fill delivered to it.
type recordSink []uint64

func (r *recordSink) Fill(now int64, lineAddr uint64, sectors uint8) { *r = append(*r, lineAddr) }

// loadFunc adapts a function to LoadTarget.
type loadFunc func(int64)

func (f loadFunc) LoadDone(cycle int64) { f(cycle) }

func TestEventOrdering(t *testing.T) {
	s := newTestSystem()
	var order recordSink
	s.Schedule(10, &order, 1, 0)
	s.Schedule(5, &order, 0, 0)
	s.Schedule(10, &order, 2, 0)
	s.RunEvents(4)
	if len(order) != 0 {
		t.Fatal("events fired early")
	}
	if got := s.NextEventCycle(); got != 5 {
		t.Fatalf("next event = %d", got)
	}
	s.RunEvents(10)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v (same-cycle events must be FIFO)", order)
	}
	if s.NextEventCycle() != -1 {
		t.Fatal("queue should be empty")
	}
}

// Property: under random scheduling interleaved with partial drains,
// events fire in (cycle, scheduling order) order, each exactly once.
func TestEventQueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := newTestSystem()
	type ev struct {
		cycle int64
		id    uint64
	}
	var fired recordSink
	var pending []ev
	now := int64(0)
	for id := uint64(0); id < 5000; id++ {
		c := now + int64(rng.Intn(50))
		s.Schedule(c, &fired, id, 0)
		pending = append(pending, ev{c, id})
		if rng.Intn(4) == 0 {
			now += int64(rng.Intn(20))
			before := len(fired)
			s.RunEvents(now)
			var due, kept []ev
			for _, e := range pending {
				if e.cycle <= now {
					due = append(due, e)
				} else {
					kept = append(kept, e)
				}
			}
			pending = kept
			sort.SliceStable(due, func(i, j int) bool { return due[i].cycle < due[j].cycle })
			if len(fired)-before != len(due) {
				t.Fatalf("at %d fired %d events, want %d", now, len(fired)-before, len(due))
			}
			for i, e := range due {
				if fired[before+i] != e.id {
					t.Fatalf("at %d event %d fired %d, want %d", now, i, fired[before+i], e.id)
				}
			}
		}
	}
}

func TestGlobalMaterialisedOnDemand(t *testing.T) {
	s := newTestSystem()
	if len(s.Global()) != 0 {
		t.Fatalf("fresh system materialised %d words", len(s.Global()))
	}
	a := s.Alloc(100)
	if n := len(s.Global()); n < int(a/4)+100 {
		t.Fatalf("Global() has %d words, allocation ends at %d", n, a/4+100)
	}
	// A never-written word reads 0, inside and past the prefix.
	far := uint32(s.GlobalWords()-1) * 4
	if s.ReadGlobal(a+40) != 0 || s.ReadGlobal(far) != 0 {
		t.Fatal("never-written word did not read 0")
	}
	// A store past the prefix grows it; the value reads back.
	s.WriteGlobal(far, 7)
	if s.ReadGlobal(far) != 7 || len(s.Global()) != s.GlobalWords() {
		t.Fatalf("store past the prefix: read %d, prefix %d words", s.ReadGlobal(far), len(s.Global()))
	}
	// Earlier contents survive a later allocation moving the prefix.
	s.WriteGlobal(a, 42)
	s.Alloc(10)
	if s.Global()[a/4] != 42 {
		t.Fatal("allocation lost earlier contents")
	}
}

func newTestL1(sys *System, allHit bool) *L1 {
	return NewL1(L1Config{
		Cache:        CacheConfig{Bytes: 4 * 1024, Assoc: 4, LineBytes: 128, SectorBytes: 32},
		HitLatency:   20,
		MSHRs:        4,
		AllHitSpills: allHit,
	}, sys)
}

func TestL1LoadHitAndMiss(t *testing.T) {
	sys := newTestSystem()
	l1 := newTestL1(sys, false)
	var doneAt int64 = -1
	ok := l1.Load(0, 0, 0b0001, ClassGlobal, loadFunc(func(c int64) { doneAt = c }))
	if !ok {
		t.Fatal("load rejected")
	}
	if doneAt != -1 {
		t.Fatal("miss completed synchronously")
	}
	sys.RunEvents(1000)
	if doneAt < 100 {
		t.Fatalf("miss completed at %d", doneAt)
	}
	// Now a hit: completes immediately at hit latency.
	var hitAt int64 = -1
	l1.Load(doneAt, 0, 0b0001, ClassGlobal, loadFunc(func(c int64) { hitAt = c }))
	if hitAt != doneAt+20 {
		t.Fatalf("hit at %d, want %d", hitAt, doneAt+20)
	}
}

func TestL1MSHRMergeAndLimit(t *testing.T) {
	sys := newTestSystem()
	l1 := newTestL1(sys, false)
	completions := 0
	for i := 0; i < 3; i++ {
		if !l1.Load(0, 0, 0b0001, ClassGlobal, loadFunc(func(int64) { completions++ })) {
			t.Fatal("merge rejected")
		}
	}
	if l1.PendingMSHRs() != 1 {
		t.Fatalf("merged loads used %d MSHRs", l1.PendingMSHRs())
	}
	// Distinct lines consume entries until the limit.
	for i := 1; i < 4; i++ {
		if !l1.Load(0, uint64(i)*128, 0b0001, ClassGlobal, loadFunc(func(int64) {})) {
			t.Fatalf("line %d rejected below limit", i)
		}
	}
	if l1.Load(0, 9*128, 0b0001, ClassGlobal, loadFunc(func(int64) {})) {
		t.Fatal("load accepted with MSHRs full")
	}
	if l1.MSHRStalls != 1 {
		t.Fatalf("stalls = %d", l1.MSHRStalls)
	}
	sys.RunEvents(10000)
	if completions != 3 {
		t.Fatalf("merged completions = %d", completions)
	}
	if l1.PendingMSHRs() != 0 {
		t.Fatal("MSHRs leaked")
	}
}

func TestAllHitSpillsBypass(t *testing.T) {
	sys := newTestSystem()
	l1 := newTestL1(sys, true)
	var at int64
	l1.Load(100, 512, 0b1111, ClassLocalSpill, loadFunc(func(c int64) { at = c }))
	if at != 120 {
		t.Fatalf("ALL-HIT spill at %d, want hit latency", at)
	}
	if l1.Stats().Misses[ClassLocalSpill] != 0 {
		t.Fatal("ALL-HIT spill missed")
	}
	// Globals still behave normally.
	missed := false
	l1.Load(100, 1024, 0b0001, ClassGlobal, loadFunc(func(int64) { missed = true }))
	sys.RunEvents(10000)
	if !missed {
		t.Fatal("global load never completed")
	}
	if l1.Stats().Misses[ClassGlobal] == 0 {
		t.Fatal("global load should miss the cold cache")
	}
}

func TestLocalStoreWriteAllocate(t *testing.T) {
	sys := newTestSystem()
	l1 := newTestL1(sys, false)
	l1.StoreLocal(0, 0, 0b1111, ClassLocalSpill)
	if sectors, ok := l1.Cache().Probe(0); !ok || sectors != 0b1111 {
		t.Fatal("local store did not allocate")
	}
	// A subsequent fill/load hits without L2 traffic.
	var at int64 = -1
	l1.Load(10, 0, 0b1111, ClassLocalSpill, loadFunc(func(c int64) { at = c }))
	if at != 30 {
		t.Fatalf("spill fill after store: %d", at)
	}
}

func TestGlobalStoreWriteThrough(t *testing.T) {
	sys := newTestSystem()
	l1 := newTestL1(sys, false)
	before := sys.L2().Stats.TotalAccesses()
	l1.StoreGlobal(0, 0, 0b0011)
	if sys.L2().Stats.TotalAccesses() == before {
		t.Fatal("global store did not write through to L2")
	}
	// No-allocate: the line is absent from L1.
	if _, ok := l1.Cache().Probe(0); ok {
		t.Fatal("write-through store allocated in L1")
	}
}
