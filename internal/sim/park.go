package sim

// The SM keeps each warp's issue state in one table indexed by slot:
// a set of park reasons, a wake cycle, and whether that wake already
// covers the scoreboard of the warp's next instruction. The scheduler
// reads only the table (and per-scheduler masks derived from it) and
// dereferences a *Warp only when the warp has no park reason and its
// wake has passed.

// parkBits are the reasons a resident warp cannot issue whatever its
// wake cycle. They overlap: a warp arriving at a barrier can be
// context-switched out while its spill trap is in flight.
type parkBits uint8

const (
	parkFinished parkBits = 1 << iota // exited; waits for its block to retire
	parkBarrier                       // waiting at its block's barrier
	parkSwapped                       // context-switched out, state in local memory
	parkNoRegs                        // holds no register range
	parkSWL                           // held back by the static wavefront limiter
	parkTrap                          // TrapOutstanding > 0
	parkLoad                          // next instruction waits on an in-flight load's register
)

// maxWarpsPerScheduler bounds the slots one scheduler owns: its ready
// and LSU-wait masks are single 64-bit words.
const maxWarpsPerScheduler = 64

// slotBit returns the scheduler owning slot and the slot's bit in that
// scheduler's masks (slot = sc + i*nsched is bit i).
func (s *SM) slotBit(slot int) (sc int, bit uint64) {
	return slot % s.nsched, 1 << uint(slot/s.nsched)
}

// parked reports whether any of the reasons r holds for w.
func (s *SM) parked(w *Warp, r parkBits) bool { return s.parkState[w.Slot]&r != 0 }

// resetSlot gives a newly admitted warp its initial park reasons and
// wake 0; it is not LSU-waiting.
func (s *SM) resetSlot(w *Warp, p parkBits) {
	s.parkState[w.Slot] = p
	s.wake[w.Slot] = 0
	s.wakeExact[w.Slot] = false
	sc, bit := s.slotBit(w.Slot)
	s.lsuWait[sc] &^= bit
	if p == 0 {
		s.ready[sc] |= bit
	} else {
		s.ready[sc] &^= bit
	}
}

// park adds reasons r to w's slot. Only the warp's own issue parks it
// (a barrier, EXIT, a trap, a context switch, a load-wait), or its
// admission. So a warp parked on parkLoad holds no other reason: it
// parked with none, and a parked warp does not issue.
func (s *SM) park(w *Warp, r parkBits) {
	s.parkState[w.Slot] |= r
	sc, bit := s.slotBit(w.Slot)
	s.ready[sc] &^= bit
}

// unpark clears reasons r from w's slot. A parked warp's wake is
// ignored, so when the last reason clears the warp may issue from
// cycle at: each unpark event knows when its blocker lifts (a barrier
// release or register activation now, a trap when its last access
// returns, a load at its data's arrival). Nothing has checked the
// scoreboard against that wake.
func (s *SM) unpark(w *Warp, r parkBits, at int64) {
	p := s.parkState[w.Slot]
	if p&r == 0 {
		return
	}
	p &^= r
	s.parkState[w.Slot] = p
	if p == 0 {
		s.wake[w.Slot] = at
		s.wakeExact[w.Slot] = false
		sc, bit := s.slotBit(w.Slot)
		s.ready[sc] |= bit
	}
}

// lowerWake runs at a load's completion, whose data arrives at cycle
// at: it may clear the scoreboard hazard the warp waits on. A warp
// parked on parkLoad unparks at the arrival; an unparked warp's wake
// moves down to it, even a wake that BRA, CALL or RET set (DESIGN.md
// §5 records that timing deviation). A warp that has exited is left
// alone, as is its slot, which may already hold a newly admitted warp.
func (s *SM) lowerWake(w *Warp, at int64) {
	if s.warps[w.Slot] != w {
		return
	}
	switch s.parkState[w.Slot] {
	case parkLoad:
		s.unpark(w, parkLoad, at)
	case 0:
		if s.wake[w.Slot] > at {
			s.wake[w.Slot] = at
			s.wakeExact[w.Slot] = false
		}
	}
}

// setLSUWait marks w refused for LSU space. Its next instruction, a
// global or local memory op, changes only when it issues, so while the
// LSU stays full the scheduler skips it without a look.
func (s *SM) setLSUWait(w *Warp, wait bool) {
	sc, bit := s.slotBit(w.Slot)
	if wait {
		s.lsuWait[sc] |= bit
	} else {
		s.lsuWait[sc] &^= bit
	}
}

// wakeUp makes a sleeping SM tick from the current cycle on.
func (s *SM) wakeUp() { s.sleepUntil = 0 }
