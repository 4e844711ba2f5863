package sim

import (
	"carsgo/internal/isa"
	"carsgo/internal/mem"
)

// access is one coalesced line request (line address + sector mask).
type access struct {
	lineAddr uint64
	sectors  uint8
}

// lsuEntry is one warp memory instruction (or trap-injected operation)
// in flight through the load-store unit. Entries and their access
// buffers are recycled per SM; an entry returns to the free list once
// it has left the queue and its last load completion has arrived.
type lsuEntry struct {
	lsu     *lsu
	warp    *Warp
	class   mem.AccessClass
	isLoad  bool
	isTrap  bool
	isLocal bool
	dst     uint8

	accesses    []access
	next        int // index of the next access to dispatch
	outstanding int
	dispatched  bool
	maxDone     int64
}

// LoadDone records one L1 load completion (the entry's mem.LoadTarget).
func (e *lsuEntry) LoadDone(done int64) {
	e.outstanding--
	if done > e.maxDone {
		e.maxDone = done
	}
	if e.outstanding == 0 && e.dispatched {
		e.lsu.finish(e)
	}
}

// lsu is the per-SM load-store unit: a FIFO of memory instructions
// dispatching sector accesses into the L1D under the port budget
// (L1DSectorsPerCycle). The paper's bandwidth interference lives here:
// spill/fill sectors occupy ports and queue slots that global accesses
// then wait for.
type lsu struct {
	sm    *SM
	queue []*lsuEntry
	cap   int
	free  []*lsuEntry
}

func newLSU(sm *SM, capacity int) lsu {
	return lsu{sm: sm, cap: capacity, queue: make([]*lsuEntry, 0, capacity)}
}

func (l *lsu) hasSpace() bool { return len(l.queue) < l.cap }
func (l *lsu) busy() bool     { return len(l.queue) > 0 }

// newEntry returns a cleared entry for w, from the free list when one
// is there; the caller appends its accesses and enqueues it.
func (l *lsu) newEntry(w *Warp, class mem.AccessClass, isLoad, isLocal bool, dst uint8) *lsuEntry {
	var e *lsuEntry
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		e = &lsuEntry{lsu: l}
	}
	e.warp, e.class, e.isLoad, e.isLocal, e.dst = w, class, isLoad, isLocal, dst
	return e
}

// release returns a finished (or never enqueued) entry to the free list.
func (l *lsu) release(e *lsuEntry) {
	*e = lsuEntry{lsu: l, accesses: e.accesses[:0]}
	l.free = append(l.free, e)
}

func (l *lsu) enqueue(e *lsuEntry) { l.queue = append(l.queue, e) }

// pop removes the queue head, shifting the rest down so the queue keeps
// its backing array.
func (l *lsu) pop() {
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = nil
	l.queue = l.queue[:n]
}

// tick dispatches sector accesses for the queue head(s) within the
// cycle's port budget.
func (l *lsu) tick(now int64) {
	budget := l.sm.gpu.Cfg.L1DSectorsPerCycle
	for len(l.queue) > 0 && budget > 0 {
		e := l.queue[0]
		for e.next < len(e.accesses) {
			acc := e.accesses[e.next]
			cost := popcount8(acc.sectors)
			if cost > budget {
				return
			}
			if e.isLoad {
				e.outstanding++
				if !l.sm.l1d.Load(now, acc.lineAddr, acc.sectors, e.class, e) {
					e.outstanding--
					return // MSHR full: retry next cycle
				}
			} else if e.isLocal {
				l.sm.l1d.StoreLocal(now, acc.lineAddr, acc.sectors, e.class)
			} else {
				l.sm.l1d.StoreGlobal(now, acc.lineAddr, acc.sectors)
			}
			l.sm.noteTraffic(now, e.class, cost)
			budget -= cost
			e.next++
		}
		e.dispatched = true
		l.pop()
		if !e.isLoad || e.outstanding == 0 {
			if e.isLoad && e.maxDone == 0 {
				e.maxDone = now
			}
			l.finish(e)
		}
	}
}

// finish resolves an entry's effect on its warp and recycles it. For
// loads the destination register becomes readable at the data-arrival
// cycle; for trap operations the warp wakes when the last one drains.
func (l *lsu) finish(e *lsuEntry) {
	w := e.warp
	switch {
	case e.isTrap:
		w.TrapOutstanding--
		if e.maxDone > w.trapMaxDone {
			w.trapMaxDone = e.maxDone
		}
		if w.TrapOutstanding == 0 {
			w.Wake = w.trapMaxDone
			// Warps that still cannot run (context-switched out, at a
			// barrier, deactivated) stay parked for their unblock event.
			if w.SwappedOut || !w.HasRegs || w.Finished || w.AtBarrier {
				w.Wake = farFuture
			}
		}
	case e.isLoad && e.dst != isa.NoReg:
		w.ReadyAt[e.dst] = e.maxDone
		// The warp may be parked waiting on this register; wake it at
		// the data-arrival cycle so the scheduler rescans it.
		if w.Wake > e.maxDone && w.TrapOutstanding == 0 {
			w.Wake = e.maxDone
		}
	}
	l.release(e)
}

func popcount8(m uint8) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}
