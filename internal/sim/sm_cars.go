package sim

import (
	"carsgo/internal/abi"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/mem"
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
			for lane := 0; lane < isa.WarpSize; lane++ {
				slotVals[lane] = *w.localWord(word, lane)
			}
		} else {
			for lane := 0; lane < isa.WarpSize; lane++ {
				*w.localWord(word, lane) = slotVals[lane]
			}
		}
		e.accesses = append(e.accesses, s.localLineAccess(w, word, ^uint32(0)))
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
	w.Wake = farFuture
	s.lsu.enqueue(e)
}

// localLineAccess computes the coalesced line access for a warp-uniform
// local word: all 32 lanes of one word share one 128B line by the local
// address interleaving.
func (s *SM) localLineAccess(w *Warp, word int, mask uint32) access {
	lineBytes := uint64(s.gpu.Cfg.L1D.Cache.LineBytes)
	addr := s.gpu.localPhysAddr(w.GWID, word, 0)
	lineAddr := addr &^ (lineBytes - 1)
	// Sector mask from active lanes: 8 lanes per 32B sector.
	var sectors uint8
	for sec := 0; sec < 4; sec++ {
		if mask&(uint32(0xFF)<<(8*sec)) != 0 {
			sectors |= 1 << sec
		}
	}
	return access{lineAddr: lineAddr, sectors: sectors}
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
		if sw.Block == b && !sw.Finished && !sw.AtBarrier {
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
	arrived.HasRegs = false
	arrived.SwappedOut = true
	s.stalledWarps = append(s.stalledWarps, arrived)

	// Hand the registers to the deactivated sibling.
	s.removeStalled(target)
	target.RegBase, target.RegCount = base, count
	target.HasRegs = true
	if target.SwappedOut {
		target.SwappedOut = false
		st.CtxSwitchSlots += uint64(count)
		s.fillWarpState(now, target) // parks until the fill drains
	} else {
		// First activation: fresh architectural state.
		s.zeroRegs(target)
		s.loadParams(target)
		target.Wake = now
	}
}

// ctxBaseWord is where context-switched register state lives in the
// warp's local memory, above the trap spill window.
const ctxBaseWord = abi.TrapSpillBase/4 + cars.SpillWindowSlots

func (s *SM) spillWarpState(now int64, w *Warp) {
	e := s.newTrapEntry(w, false)
	for i := 0; i < w.RegCount; i++ {
		vals := &s.regArena[w.RegBase+i]
		word := ctxBaseWord + i
		for lane := 0; lane < isa.WarpSize; lane++ {
			*w.localWord(word, lane) = vals[lane]
		}
		e.accesses = append(e.accesses, s.localLineAccess(w, word, ^uint32(0)))
	}
	s.enqueueTrap(e)
}

func (s *SM) fillWarpState(now int64, w *Warp) {
	e := s.newTrapEntry(w, true)
	for i := 0; i < w.RegCount; i++ {
		vals := &s.regArena[w.RegBase+i]
		word := ctxBaseWord + i
		for lane := 0; lane < isa.WarpSize; lane++ {
			vals[lane] = *w.localWord(word, lane)
		}
		e.accesses = append(e.accesses, s.localLineAccess(w, word, ^uint32(0)))
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
	if finished.HasRegs {
		s.regAlloc.Release(finished.RegBase, finished.RegCount)
		finished.HasRegs = false
	}
	// Reactivate stalled warps while register space allows.
	for len(s.stalledWarps) > 0 {
		w := s.stalledWarps[0]
		if w.Finished {
			s.stalledWarps = s.stalledWarps[1:]
			continue
		}
		base, ok := s.regAlloc.Alloc(w.Block.RegsPerWarp)
		if !ok {
			break
		}
		s.stalledWarps = s.stalledWarps[1:]
		w.RegBase, w.RegCount = base, w.Block.RegsPerWarp
		w.HasRegs = true
		if w.SwappedOut {
			w.SwappedOut = false
			s.stats().CtxSwitchSlots += uint64(w.RegCount)
			s.fillWarpState(now, w) // parks until the fill drains
		} else {
			s.zeroRegs(w)
			s.loadParams(w)
			if w.Wake > now && !w.AtBarrier {
				w.Wake = now
			}
		}
	}
}
