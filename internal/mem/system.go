package mem

import "math/bits"

// FillSink receives the line fills the System delivers: an L1's MSHR
// fills and an instruction cache's line fills.
type FillSink interface {
	Fill(now int64, lineAddr uint64, sectors uint8)
}

// event is one scheduled fill, ordered by (cycle, seq): same-cycle
// events fire in the order they were scheduled.
type event struct {
	cycle   int64
	seq     uint64
	sink    FillSink
	line    uint64
	sectors uint8
}

func (e *event) before(o *event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by value. push and pop
// move a hole instead of swapping, so each level copies one event.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the sink reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// SystemConfig parameterises the shared L2/DRAM model.
type SystemConfig struct {
	L2 CacheConfig
	// L2Latency is the round-trip latency from L1 miss to L2 data return.
	L2Latency int64
	// L2SectorsPerCycle is the aggregate L2 bandwidth in 32B sectors.
	L2SectorsPerCycle float64
	// DRAMLatency is the additional latency of an L2 miss.
	DRAMLatency int64
	// DRAMSectorsPerCycle is the aggregate DRAM bandwidth in sectors.
	DRAMSectorsPerCycle float64
}

// SystemStats aggregates DRAM traffic; L2 statistics live on the L2
// tag array (L2().Stats).
type SystemStats struct {
	DRAMSectors uint64
}

// System is the shared part of the hierarchy: L2 tags, DRAM bandwidth,
// the global-memory functional backing store, and the event queue that
// delivers miss completions back to the cores.
type System struct {
	cfg   SystemConfig
	l2    *Cache
	Stats SystemStats

	events   eventHeap
	eventSeq uint64

	l2NextFree   float64
	dramNextFree float64

	// global is the materialised prefix of global memory: it covers
	// every allocation and every word written, and grows on demand up
	// to globalWords. Words past it read 0.
	global      []uint32
	globalWords int
	next        uint32 // global allocation bump pointer (bytes)
}

// NewSystem builds the shared memory system with the given global
// capacity in 32-bit words. No global memory is materialised until
// Alloc hands it out or a store writes it.
func NewSystem(cfg SystemConfig, globalWords int) *System {
	return &System{
		cfg:         cfg,
		l2:          NewCache(cfg.L2),
		globalWords: globalWords,
	}
}

// L2 exposes the L2 tag array (for tests and stats).
func (s *System) L2() *Cache { return s.l2 }

// Alloc reserves words of global memory, returning the byte address.
// Allocations are 256-byte aligned so distinct arrays never share lines.
func (s *System) Alloc(words int) uint32 {
	const align = 256
	s.next = (s.next + align - 1) &^ (align - 1)
	addr := s.next
	s.next += uint32(words * 4)
	if int(s.next) > s.globalWords*4 {
		panic("mem: global memory exhausted")
	}
	s.materialise(int(s.next / 4))
	return addr
}

// materialise grows the global prefix to at least words words, at
// least doubling its capacity (up to globalWords) when it reallocates.
func (s *System) materialise(words int) {
	if words <= len(s.global) {
		return
	}
	if words > s.globalWords {
		panic("mem: global access beyond capacity")
	}
	if words > cap(s.global) {
		n := min(max(words, 2*cap(s.global)), s.globalWords)
		grown := make([]uint32, len(s.global), n)
		copy(grown, s.global)
		s.global = grown
	}
	s.global = s.global[:words]
}

// GlobalWords returns the global-memory capacity in words.
func (s *System) GlobalWords() int { return s.globalWords }

// Global returns the materialised global memory, which covers every
// allocation made so far. A later Alloc (or a store past the prefix)
// may move it, so callers re-read it after allocating.
func (s *System) Global() []uint32 { return s.global }

// ReadGlobal returns the word at the byte address; a word never
// written reads 0.
func (s *System) ReadGlobal(addr uint32) uint32 {
	w := int(addr / 4)
	if w >= s.globalWords {
		panic("mem: global access beyond capacity")
	}
	if w < len(s.global) {
		return s.global[w]
	}
	return 0
}

// WriteGlobal sets the word at the byte address.
func (s *System) WriteGlobal(addr uint32, v uint32) {
	w := int(addr / 4)
	s.materialise(w + 1)
	s.global[w] = v
}

// Schedule queues a fill of the line's sectors into sink at the given
// cycle.
func (s *System) Schedule(cycle int64, sink FillSink, lineAddr uint64, sectors uint8) {
	s.eventSeq++
	s.events.push(event{cycle: cycle, seq: s.eventSeq, sink: sink, line: lineAddr, sectors: sectors})
}

// RunEvents fires all events due at or before now.
func (s *System) RunEvents(now int64) {
	for len(s.events) > 0 && s.events[0].cycle <= now {
		e := s.events.pop()
		e.sink.Fill(now, e.line, e.sectors)
	}
}

// NextEventCycle returns the cycle of the earliest pending event, or -1.
func (s *System) NextEventCycle() int64 {
	if len(s.events) == 0 {
		return -1
	}
	return s.events[0].cycle
}

// reserve books sectors on a bandwidth resource and returns the cycle at
// which service begins.
func reserve(nextFree *float64, now int64, sectors int, sectorsPerCycle float64) int64 {
	start := float64(now)
	if *nextFree > start {
		start = *nextFree
	}
	*nextFree = start + float64(sectors)/sectorsPerCycle
	return int64(start)
}

// FetchLine requests the missing sectors of a line from L2 (and DRAM on
// an L2 miss) on behalf of an L1. It returns the cycle at which the data
// arrives at the requesting L1. Class attribution follows the original
// request so spill traffic is visible at every level.
func (s *System) FetchLine(now int64, lineAddr uint64, sectorMask uint8, class AccessClass) int64 {
	n := bits.OnesCount8(sectorMask)
	start := reserve(&s.l2NextFree, now, n, s.cfg.L2SectorsPerCycle)
	set, ln := s.l2.find(lineAddr)
	_, miss := s.l2.access(ln, sectorMask, class)
	done := start + s.cfg.L2Latency
	if miss != 0 {
		nm := bits.OnesCount8(miss)
		dstart := reserve(&s.dramNextFree, done, nm, s.cfg.DRAMSectorsPerCycle)
		s.Stats.DRAMSectors += uint64(nm)
		done = dstart + s.cfg.DRAMLatency
		_, evDirty, _ := s.l2.fill(set, ln, lineAddr, miss)
		if evDirty > 0 {
			// L2 dirty eviction consumes DRAM write bandwidth.
			reserve(&s.dramNextFree, done, evDirty, s.cfg.DRAMSectorsPerCycle)
			s.Stats.DRAMSectors += uint64(evDirty)
		}
	}
	return done
}

// WriteThrough books a write's sectors through L2 (global stores on
// GPUs write through the L1). It consumes bandwidth but completes
// asynchronously; stores do not stall the warp.
func (s *System) WriteThrough(now int64, lineAddr uint64, sectorMask uint8, class AccessClass) {
	n := bits.OnesCount8(sectorMask)
	reserve(&s.l2NextFree, now, n, s.cfg.L2SectorsPerCycle)
	set, ln := s.l2.find(lineAddr)
	_, miss := s.l2.access(ln, sectorMask, class)
	if miss != 0 {
		ln, _, _ = s.l2.fill(set, ln, lineAddr, miss)
		s.l2.markDirty(ln, miss)
		// Dirty data eventually drains to DRAM; book write bandwidth.
		nm := bits.OnesCount8(miss)
		reserve(&s.dramNextFree, now, nm, s.cfg.DRAMSectorsPerCycle)
		s.Stats.DRAMSectors += uint64(nm)
	} else {
		s.l2.markDirty(ln, sectorMask)
	}
}

// Writeback books an L1 dirty-eviction's sectors into L2.
func (s *System) Writeback(now int64, lineAddr uint64, sectors int) {
	reserve(&s.l2NextFree, now, sectors, s.cfg.L2SectorsPerCycle)
	s.l2.MarkDirty(lineAddr, 0) // touch LRU if present; data flow is implicit
}
