package sim

import (
	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/mem"
	"carsgo/internal/simt"
	"carsgo/internal/stats"
)

// This file is the CARS runtime inside the SM: the issue-stage
// free-register check and trap injection (§IV-A), the barrier-deadlock
// context switch, and the warp-status-check releases (§IV-B).

// carsCall performs the register-stack side of a call: the free-space
// check, then either an exact-FRU CARS frame or a fixed-size register
// window (§VII ablation).
func (s *SM) carsCall(now int64, w *Warp, fru int) {
	if s.gpu.Cfg.WindowedStacks {
		size := s.gpu.windowSize
		if size < fru {
			size = fru // a window must at least fit the frame
		}
		s.carsEnsure(now, w, size)
		w.CStack.CallWindow(size)
		return
	}
	s.carsEnsure(now, w, fru)
	w.CStack.Call()
}

// carsEnsure runs the issue-stage free-register check for a call with
// the given FRU, injecting trap spills when the warp's hardware stack
// is exhausted (Fig. 6: the oldest frames spill in wrap-around order).
func (s *SM) carsEnsure(now int64, w *Warp, fru int) {
	ops, err := w.CStack.EnsureSpace(fru)
	if err != nil {
		s.execFault(w, "%v", err)
	}
	if len(ops) == 0 {
		return
	}
	st := s.stats()
	st.TrapCalls++
	for _, op := range ops {
		st.TrapSpillSlots += uint64(op.Count)
		s.injectSpill(now, w, op)
	}
}

// carsRet performs the register-stack side of a completed return and
// fills a spilled caller frame back if needed.
func (s *SM) carsRet(now int64, w *Warp) {
	fill, err := w.CStack.Ret()
	if err != nil {
		s.execFault(w, "%v", err)
	}
	if fill != nil {
		s.stats().TrapFillSlots += uint64(fill.Count)
		s.injectSpill(now, w, *fill)
	}
}

// injectSpill moves register-stack slots to or from the local-memory
// spill window: the functional copy happens now; the timing cost flows
// through the LSU as spill-class traffic (the software trap's injected
// LDL/STL instructions). The warp blocks until the trap drains.
func (s *SM) injectSpill(now int64, w *Warp, op cars.SpillOp) {
	st := s.stats()
	spillBaseWord := abi.TrapSpillBase / 4
	e := s.newTrapEntry(w, op.Fill)
	for i := 0; i < op.Count; i++ {
		abs := op.StartSlot + i
		word := spillBaseWord + cars.SpillAddrSlot(abs)
		phys := w.CStack.PhysSlot(abs)
		slotVals := w.stackSlot(phys)
		if op.Fill {
			*slotVals = *w.localRow(word)
		} else {
			*w.localRow(word) = *slotVals
		}
		e.accesses = s.gpu.rowAccesses(e.accesses, s.gpu.localPhysAddr(w.GWID, word, 0), simt.FullMask)
		// The trap handler's injected LDL/STL instructions are part of
		// the dynamic instruction stream (Fig. 13's spill/fill bars).
		st.Instructions[stats.CatSpillFill]++
		if mon := s.gpu.San; mon != nil {
			mon.TrapSlot(w.GWID, op.Fill, abs, slotVals)
		}
	}
	s.enqueueTrap(e)
}

// newTrapEntry takes an LSU entry for trap traffic (spill-class local
// accesses, loads when isFill) on w's behalf; the caller appends the
// accesses and passes it to enqueueTrap.
func (s *SM) newTrapEntry(w *Warp, isFill bool) *lsuEntry {
	e := s.lsu.newEntry(w, mem.ClassLocalSpill, isFill, true, isa.NoReg)
	e.isTrap = true
	return e
}

// enqueueTrap pushes trap traffic through the LSU; the warp blocks
// until it drains.
func (s *SM) enqueueTrap(e *lsuEntry) {
	w := e.warp
	w.TrapOutstanding++
	w.trapMaxDone = 0
	s.park(w, parkTrap)
	s.lsu.enqueue(e)
}

// checkBarrierContextSwitch fires the §IV-B trap: a warp is waiting at
// a barrier while sibling warps of the same block sit register-
// deactivated, so the barrier can never release without a context
// switch. The arriving warp's register state spills to memory and its
// register range passes to a deactivated sibling.
func (s *SM) checkBarrierContextSwitch(now int64, arrived *Warp) {
	if !s.gpu.Cfg.CARSEnabled {
		return
	}
	b := arrived.Block
	var target *Warp
	for _, sw := range s.stalledWarps {
		// Only a sibling that still has to reach the barrier justifies a
		// switch; one already parked at the barrier gains nothing from
		// registers until the barrier releases.
		if sw.Block == b && !s.parked(sw, parkFinished|parkBarrier) {
			target = sw
			break
		}
	}
	if target == nil {
		return
	}
	st := s.stats()
	st.ContextSwitches++
	st.CtxSwitchSlots += uint64(arrived.RegCount)

	// Spill the arriving warp's whole register state.
	s.spillWarpState(now, arrived)
	base, count := arrived.RegBase, arrived.RegCount
	s.park(arrived, parkNoRegs|parkSwapped)
	s.stalledWarps = append(s.stalledWarps, arrived)

	// Hand the registers to the deactivated sibling.
	s.removeStalled(target)
	target.RegBase, target.RegCount = base, count
	s.activateRegs(now, target)
}

// activateRegs unparks a warp that has just been given a register
// range: a context-switched-out warp refills its saved state (and parks
// until the fill drains), a never-run warp starts fresh.
func (s *SM) activateRegs(now int64, w *Warp) {
	if s.parked(w, parkSwapped) {
		s.unpark(w, parkNoRegs|parkSwapped, now)
		s.stats().CtxSwitchSlots += uint64(w.RegCount)
		s.fillWarpState(now, w)
		return
	}
	s.unpark(w, parkNoRegs, now)
	s.zeroRegs(w)
	s.loadParams(w)
}

// ctxBaseWord is where context-switched register state lives in the
// warp's local memory, above the trap spill window.
const ctxBaseWord = abi.TrapSpillBase/4 + cars.SpillWindowSlots

func (s *SM) spillWarpState(now int64, w *Warp) {
	e := s.newTrapEntry(w, false)
	for i := 0; i < w.RegCount; i++ {
		word := ctxBaseWord + i
		*w.localRow(word) = s.regArena[w.RegBase+i]
		e.accesses = s.gpu.rowAccesses(e.accesses, s.gpu.localPhysAddr(w.GWID, word, 0), simt.FullMask)
	}
	s.enqueueTrap(e)
}

func (s *SM) fillWarpState(now int64, w *Warp) {
	e := s.newTrapEntry(w, true)
	for i := 0; i < w.RegCount; i++ {
		word := ctxBaseWord + i
		s.regArena[w.RegBase+i] = *w.localRow(word)
		e.accesses = s.gpu.rowAccesses(e.accesses, s.gpu.localPhysAddr(w.GWID, word, 0), simt.FullMask)
	}
	s.enqueueTrap(e)
}

func (s *SM) removeStalled(w *Warp) {
	for i, sw := range s.stalledWarps {
		if sw == w {
			s.stalledWarps = append(s.stalledWarps[:i], s.stalledWarps[i+1:]...)
			return
		}
	}
}

// warpStatusCheck runs when a warp finishes (EXIT): it releases the
// finished warp's registers and reactivates waiting warps (§IV-B's
// warp status check unit releasing one waiting warp).
func (s *SM) warpStatusCheck(now int64, finished *Warp) {
	if !s.parked(finished, parkNoRegs) {
		s.regAlloc.Release(finished.RegBase, finished.RegCount)
		s.park(finished, parkNoRegs)
	}
	// Reactivate stalled warps while register space allows.
	for len(s.stalledWarps) > 0 {
		w := s.stalledWarps[0]
		if s.parked(w, parkFinished) {
			s.stalledWarps = s.stalledWarps[1:]
			continue
		}
		base, ok := s.regAlloc.Alloc(w.Block.RegsPerWarp)
		if !ok {
			break
		}
		s.stalledWarps = s.stalledWarps[1:]
		w.RegBase, w.RegCount = base, w.Block.RegsPerWarp
		s.activateRegs(now, w)
	}
}
