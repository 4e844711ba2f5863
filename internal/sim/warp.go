package sim

import (
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/simt"
)

// farFuture marks registers with in-flight loads.
const farFuture = int64(1) << 60

// localPageWords is the granularity of lazy local-memory allocation.
const localPageWords = 64

type localPage [localPageWords][isa.WarpSize]uint32

// Block is one resident thread block (CTA) on an SM.
type Block struct {
	ID         int // global block index within the grid
	Warps      []*Warp
	StartCycle int64

	// Barrier state: warps arrived at the current barrier.
	BarrierArrived int

	// LiveWarps counts warps that have not exited.
	LiveWarps int

	// Shared-memory functional storage and allocation size.
	Shared     []uint32
	SmemBytes  int
	ThreadsCnt int

	// CARS level this block was launched at (ladder index).
	LevelIdx    int
	RegsPerWarp int // rounded slots per warp
}

// Warp is one resident warp's complete state.
type Warp struct {
	SM       *SM
	Slot     int // warp slot within the SM
	Block    *Block
	WInBlock int
	GWID     int // grid-global warp id (stable local-memory addressing)

	SIMT simt.Stack

	// Register allocation: base index and slot count in the SM register
	// arena. hasRegs is false for CARS-deactivated (stalled-list) warps
	// and context-switched-out warps.
	RegBase  int
	RegCount int
	HasRegs  bool

	// KernelBase is the architectural register count backed by the base
	// allocation; slots beyond it form the CARS register stack.
	KernelBase int

	// CStack is the CARS per-warp register stack (RFP/RSP/frames).
	CStack cars.Stack

	// Preds holds the 8 predicate registers as lane masks.
	Preds [8]uint32

	// Scoreboard: cycle at which each architectural register (and
	// predicate) becomes readable.
	ReadyAt     [isa.MaxArchRegs]int64
	PredReadyAt [8]int64

	// Wake gates issue: icache misses, traps, and issue pacing push it
	// into the future.
	Wake int64

	AtBarrier  bool
	Finished   bool
	SwappedOut bool // context-switched out (register state in memory)
	SWLActive  bool // under the static wavefront limiter

	// TrapOutstanding counts in-flight trap-injected memory operations;
	// the warp cannot issue until they drain.
	TrapOutstanding int
	trapMaxDone     int64

	// Instruction buffer: the (func,pc) already fetched into the warp's
	// front-end, so stalled re-scans skip the instruction cache.
	IBufFunc int
	IBufPC   int

	// Local is the functional per-thread local memory: pages indexed by
	// page number, allocated on first touch. Software LDL/STL stay
	// within the localWordsPerWarp window (execLocal faults past it).
	Local []*localPage

	// lsuRefused records that tryIssue refused the warp because its next
	// instruction, a global or local memory op, found the LSU full. The
	// next instruction changes only when the warp issues or is
	// initialised, which clear it; until then, while the LSU stays full,
	// the scheduler skips the warp (see scheduleOne).
	lsuRefused bool

	// DynCallDepth tracks the current dynamic call depth for stats.
	DynCallDepth int
}

// reg returns the warp-wide value vector of architectural register r,
// applying CARS renaming when the register stack is active (§III-A):
// for r = 16+k with k < RSP−RFP, the physical slot is RFP+k within the
// stack region (modulo the stack size, Fig. 6's circular stack).
func (w *Warp) reg(r uint8) *[isa.WarpSize]uint32 {
	x := int(r)
	if x >= isa.FirstCalleeSaved && w.CStack.Slots > 0 {
		if k := x - isa.FirstCalleeSaved; k < w.CStack.RenameLen() {
			return &w.SM.regArena[w.RegBase+w.KernelBase+w.CStack.SlotFor(k)]
		}
	}
	return &w.SM.regArena[w.RegBase+x]
}

// slotIndex returns the physical arena slot an architectural register
// resolves to (the same mapping reg uses), for bank accounting.
func (w *Warp) slotIndex(r uint8) int {
	x := int(r)
	if x >= isa.FirstCalleeSaved && w.CStack.Slots > 0 {
		if k := x - isa.FirstCalleeSaved; k < w.CStack.RenameLen() {
			return w.RegBase + w.KernelBase + w.CStack.SlotFor(k)
		}
	}
	return w.RegBase + x
}

// stackSlot returns the storage of a physical register-stack slot.
func (w *Warp) stackSlot(phys int) *[isa.WarpSize]uint32 {
	return &w.SM.regArena[w.RegBase+w.KernelBase+phys]
}

// predMask evaluates the instruction's guard predicate over all lanes.
func (w *Warp) predMask(in *isa.Instruction) uint32 {
	if in.Pred == isa.NoPred {
		return simt.FullMask
	}
	m := w.Preds[in.Pred]
	if in.PNeg {
		m = ^m
	}
	return m
}

// localWord reads/writes functional local memory for one lane.
func (w *Warp) localWord(wordIdx int, lane int) *uint32 {
	pageIdx := wordIdx / localPageWords
	if pageIdx >= len(w.Local) {
		w.Local = append(w.Local, make([]*localPage, pageIdx+1-len(w.Local))...)
	}
	pg := w.Local[pageIdx]
	if pg == nil {
		pg = &localPage{}
		w.Local[pageIdx] = pg
	}
	return &pg[wordIdx%localPageWords][lane]
}

// regsReady reports whether the scoreboard permits reading/writing the
// instruction's registers at cycle now; when blocked it also returns
// the cycle at which the hazard clears (for idle skipping).
func (w *Warp) regsReady(now int64, in *isa.Instruction) (bool, int64) {
	at := int64(0)
	if in.SrcA != isa.NoReg && w.ReadyAt[in.SrcA] > at {
		at = w.ReadyAt[in.SrcA]
	}
	if in.SrcB != isa.NoReg && w.ReadyAt[in.SrcB] > at {
		at = w.ReadyAt[in.SrcB]
	}
	if in.SrcC != isa.NoReg && w.ReadyAt[in.SrcC] > at {
		at = w.ReadyAt[in.SrcC]
	}
	if in.Dst != isa.NoReg && w.ReadyAt[in.Dst] > at {
		at = w.ReadyAt[in.Dst]
	}
	if in.Pred != isa.NoPred && w.PredReadyAt[in.Pred] > at {
		at = w.PredReadyAt[in.Pred]
	}
	if in.Op == isa.OpSetP && w.PredReadyAt[in.PDst] > at {
		at = w.PredReadyAt[in.PDst]
	}
	return at <= now, at
}
