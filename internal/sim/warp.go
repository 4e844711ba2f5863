package sim

import (
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/simt"
)

// farFuture marks registers with in-flight loads, and a wake that no
// cycle reaches (an SM with no pending wake sleeps until woken).
const farFuture = int64(1) << 60

// localPageWords is the granularity of lazy local-memory allocation.
const localPageWords = 64

type localPage [localPageWords]lanes

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
	// arena, meaningful while the slot is not parked on parkNoRegs (see
	// SM.park): CARS-deactivated (stalled-list) and context-switched-out
	// warps hold no range.
	RegBase  int
	RegCount int

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

	// TrapOutstanding counts in-flight trap-injected memory operations;
	// the warp stays parked on parkTrap until they drain.
	TrapOutstanding int
	trapMaxDone     int64

	// IBufAddr is the instruction buffer: the code address of the
	// instruction already fetched into the warp's front-end, so stalled
	// re-scans skip the instruction cache.
	IBufAddr uint64

	// next is the instruction under the SIMT top and nextAddr its code
	// address, decoded when the top moves (SM.decode); next is nil when
	// the stack is empty or its PC lies past the function's end.
	next     *isa.Instruction
	nextAddr uint64

	// Local is the functional per-thread local memory: pages indexed by
	// page number, allocated on first touch. Software LDL/STL stay
	// within the localWordsPerWarp window (execLocal faults past it).
	Local []*localPage

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

// localRow returns a local word's row: its value in each of the 32
// lanes, allocating the word's page on first touch.
func (w *Warp) localRow(wordIdx int) *lanes {
	pageIdx := wordIdx / localPageWords
	if pageIdx >= len(w.Local) {
		w.Local = append(w.Local, make([]*localPage, pageIdx+1-len(w.Local))...)
	}
	pg := w.Local[pageIdx]
	if pg == nil {
		pg = &localPage{}
		w.Local[pageIdx] = pg
	}
	return &pg[wordIdx%localPageWords]
}

// regsReady returns the first cycle at which the scoreboard lets the
// instruction read and write its registers: farFuture while one of
// them waits on an in-flight load.
func (w *Warp) regsReady(in *isa.Instruction) int64 {
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
	return at
}
