package sim

import (
	"math/bits"

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
// It wakes the SM: the completion may ready a register or a trap, and
// it may have freed the MSHR the LSU head waits for.
func (e *lsuEntry) LoadDone(done int64) {
	e.lsu.sm.wakeUp()
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
// cycle's port budget and reports whether it dispatched or popped
// anything. When it did neither, the queue is empty or its head waits
// for an MSHR, which only a load completion frees.
func (l *lsu) tick(now int64) (moved bool) {
	budget := l.sm.gpu.Cfg.L1DSectorsPerCycle
	for len(l.queue) > 0 && budget > 0 {
		e := l.queue[0]
		for e.next < len(e.accesses) {
			acc := e.accesses[e.next]
			cost := bits.OnesCount8(acc.sectors)
			if cost > budget {
				return moved
			}
			if e.isLoad {
				e.outstanding++
				if !l.sm.l1d.Load(now, acc.lineAddr, acc.sectors, e.class, e) {
					e.outstanding--
					return moved // MSHR full: retry once a load completes
				}
			} else if e.isLocal {
				l.sm.l1d.StoreLocal(now, acc.lineAddr, acc.sectors, e.class)
			} else {
				l.sm.l1d.StoreGlobal(now, acc.lineAddr, acc.sectors)
			}
			l.sm.noteTraffic(now, e.class, cost)
			budget -= cost
			e.next++
			moved = true
		}
		e.dispatched = true
		l.pop()
		moved = true
		if !e.isLoad || e.outstanding == 0 {
			if e.isLoad && e.maxDone == 0 {
				e.maxDone = now
			}
			l.finish(e)
		}
	}
	return moved
}

// finish resolves an entry's effect on its warp and recycles it. For
// loads the destination register becomes readable at the data-arrival
// cycle; for trap operations the warp unparks when the last one drains
// (and stays parked if something else still holds it: a switch, a
// barrier). A load may outlive its warp, which exits without waiting
// for it; lowerWake leaves such a warp's slot alone.
func (l *lsu) finish(e *lsuEntry) {
	w := e.warp
	switch {
	case e.isTrap:
		w.TrapOutstanding--
		if e.maxDone > w.trapMaxDone {
			w.trapMaxDone = e.maxDone
		}
		if w.TrapOutstanding == 0 {
			l.sm.unpark(w, parkTrap, w.trapMaxDone)
		}
	case e.isLoad && e.dst != isa.NoReg:
		w.ReadyAt[e.dst] = e.maxDone
		// The warp may be waiting on this register; wake it at the
		// data-arrival cycle so the scheduler rescans it.
		l.sm.lowerWake(w, e.maxDone)
	}
	l.release(e)
}
